//! The `cookiepicker` command-line interface.
//!
//! Subcommands:
//!
//! * `classify <regular.html> <hidden.html>` — run the paper's decision
//!   algorithm on two page versions read from disk, optionally explaining
//!   which structure/text drove the verdict;
//! * `simulate` — train CookiePicker over a seeded synthetic population and
//!   print a privacy audit;
//! * `jar <jar.json>` — inspect a persisted cookie jar;
//! * `serve` — run the cp-serve decision service over real TCP;
//! * `loadgen` — drive a running service with a seeded request mix and
//!   report throughput + latency percentiles as JSON;
//! * `crawl` — run the autonomous frontier scheduler over a world, either
//!   in-process or against a running service, until the corpus converges.
//!
//! Argument parsing is hand-rolled (no external dependency) and returns a
//! typed [`Command`], so it is unit-testable.

use std::fmt;

use cookiepicker_core::{decide, explain, CookiePickerConfig};
use cp_cookies::{CookieJar, SimTime};
use cp_html::parse_document;
use cp_runtime::json::ToJson;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Compare two HTML files with the decision algorithm.
    Classify {
        /// Path to the regular (cookies-enabled) version.
        regular: String,
        /// Path to the hidden (cookies-disabled) version.
        hidden: String,
        /// Thresholds/level overrides.
        config: CookiePickerConfig,
        /// Whether to print the structural/text diff report.
        explain: bool,
        /// Emit the decision as JSON (the same serialization the service's
        /// `/v1/classify` endpoint returns).
        json: bool,
    },
    /// Run a seeded population simulation and print the audit.
    Simulate {
        /// Population seed.
        seed: u64,
        /// Number of sites (capped at the Table-1 population size).
        sites: usize,
    },
    /// Inspect a persisted jar file.
    Jar {
        /// Path to the JSON jar.
        path: String,
        /// Restrict output to one site.
        site: Option<String>,
        /// Print the privacy audit instead of the cookie list.
        summary: bool,
    },
    /// Run the decision service.
    Serve {
        /// Port to bind on 127.0.0.1 (0 picks a free port).
        port: u16,
        /// Embedded-world population seed.
        seed: u64,
        /// Worker threads.
        workers: usize,
        /// Training-store shards.
        shards: usize,
        /// Connections admitted beyond one per worker: at most `workers +
        /// queue` are open at once, and the next is answered `503`.
        queue: usize,
        /// Per-connection read/write timeout, milliseconds.
        timeout_ms: u64,
        /// Chaos mode: hidden-fetch fault rate in `[0, 1]` (0 disables).
        chaos_rate: f64,
        /// Durable mode: directory for per-shard WALs + snapshots.
        data_dir: Option<String>,
        /// WAL fsync policy (`always` / `batch` / `never`).
        fsync: cp_serve::FsyncPolicy,
        /// Events between automatic per-shard checkpoints.
        snapshot_every: u64,
        /// Injected storage-fault rate in `[0, 1]` (0 = real filesystem).
        storage_fault_rate: f64,
        /// Seed for the storage-fault stream.
        storage_fault_seed: u64,
        /// Embedded world to serve (`table1` or `uniform:N`).
        world: cp_serve::WorldKind,
        /// Replication listener port (cluster mode; 0 picks a free port).
        repl_port: Option<u16>,
        /// Replication ack policy (`none` / `quorum` / `all`).
        repl_ack: cp_serve::ReplAckPolicy,
        /// Follower replication addresses to lead at startup (repeatable).
        repl_followers: Vec<String>,
        /// Generation to lead at — followers that have witnessed a newer
        /// one fence the handshake and the server refuses to start.
        repl_generation: u64,
        /// Resync backlog ring capacity (records kept in memory for
        /// follower replay; reconnectors beyond the window bootstrap).
        repl_backlog: usize,
    },
    /// Run the cluster router in front of replicated cp-serve backends.
    Route {
        /// Port to bind on 127.0.0.1 (0 picks a free port).
        port: u16,
        /// Backend `HTTP_ADDR,REPL_ADDR` pairs; the first is led as the
        /// initial primary.
        backends: Vec<cp_serve::BackendAddr>,
        /// Event-loop shards serving client connections.
        workers: usize,
        /// Heartbeat probe interval, milliseconds.
        heartbeat_ms: u64,
        /// Consecutive missed heartbeats before a backend is declared dead.
        miss_threshold: u32,
        /// Ack policy handed to a newly promoted primary.
        ack: cp_serve::ReplAckPolicy,
    },
    /// Run the deterministic TCP fault proxy between a client and a
    /// server (partition/stall/drop/throttle schedules for chaos gates).
    ChaosProxy {
        /// Address to listen on (`host:port`, port 0 picks a free port).
        listen: String,
        /// Address every accepted connection is forwarded to.
        target: String,
        /// Fault schedule spec, e.g. `open:500,cut:1000,open:0`.
        schedule: String,
        /// Seed for the throttle chunk-size stream.
        seed: u64,
    },
    /// One HTTP request against a running service (the crash harness's
    /// portable substitute for curl/nc).
    Get {
        /// Server host.
        host: String,
        /// Server port.
        port: u16,
        /// Send a bodyless POST instead of a GET.
        post: bool,
        /// Request target, e.g. `/v1/marks`.
        path: String,
    },
    /// Drive a running service with a seeded load mix.
    Loadgen {
        /// Server host.
        host: String,
        /// Server port.
        port: u16,
        /// Client threads.
        threads: usize,
        /// Keep-alive connections per thread (batched rounds when > 1).
        connections: usize,
        /// Total requests across all threads.
        requests: u64,
        /// Mix seed (must match the server's seed).
        seed: u64,
        /// Sample visit hosts Zipf-ranked from a `uniform:N` world instead
        /// of partitioning the Table-1 population.
        hosts: Option<u64>,
        /// Zipf exponent for `--hosts` sampling.
        zipf: f64,
        /// Also write the JSON report to this file.
        out: Option<String>,
        /// Write the observed `"host cookie"` mark lines to this file (one
        /// per line, sorted) — the chaos gate diffs two of these.
        marks_out: Option<String>,
        /// Transport retries per request (on reused connections).
        retries: u32,
        /// Base retry backoff, milliseconds (doubles per attempt).
        backoff_ms: u64,
    },
    /// Run the autonomous frontier crawler.
    Crawl {
        /// World to crawl (`table1` or `uniform:N`).
        world: cp_serve::WorldKind,
        /// Population seed (must match the server's in HTTP mode).
        seed: u64,
        /// Concurrent visits per scheduler tick.
        workers: usize,
        /// Stop after this many virtual ticks (unset = run to convergence).
        ticks: Option<u64>,
        /// Stop after this many wall-clock seconds.
        duration_s: Option<u64>,
        /// Usefulness-TTL in seconds: marks older than this decay and are
        /// re-verified (unset = marks never decay).
        ttl_s: Option<u64>,
        /// Probe retries before falling back to the deadline floor.
        retries: u32,
        /// Base backoff, milliseconds (doubles per attempt, jittered).
        backoff_ms: u64,
        /// Server host (HTTP mode).
        host: String,
        /// Server port; `0` crawls in-process against an embedded world.
        port: u16,
        /// Cap on hosts discovered by enumeration.
        max_hosts: Option<u64>,
        /// Extra hosts injected into the frontier (repeatable) — e.g.
        /// stale entries the resolver will reject.
        extra_hosts: Vec<String>,
        /// Also write the JSON report to this file.
        out: Option<String>,
        /// Write final `"host cookie"` mark lines to this file.
        marks_out: Option<String>,
    },
    /// Print usage.
    Help,
}

/// Error produced by [`parse_args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parses command-line arguments (excluding the program name).
///
/// # Errors
///
/// Returns [`CliError`] with a usage hint on unknown subcommands, missing
/// operands, or malformed flag values.
pub fn parse_args<I, S>(args: I) -> Result<Command, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let args: Vec<String> = args.into_iter().map(Into::into).collect();
    let Some(sub) = args.first() else { return Ok(Command::Help) };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "classify" => {
            let mut config = CookiePickerConfig::default();
            let mut explain = false;
            let mut json = false;
            let mut files = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--explain" => explain = true,
                    "--json" => json = true,
                    "--thresh1" => config.thresh1 = flag_value(&mut it, "--thresh1")?,
                    "--thresh2" => config.thresh2 = flag_value(&mut it, "--thresh2")?,
                    "--level" => config.max_level = flag_value(&mut it, "--level")?,
                    other if other.starts_with("--") => {
                        return Err(err(format!("unknown flag {other}")))
                    }
                    file => files.push(file.to_string()),
                }
            }
            if files.len() != 2 {
                return Err(err("classify needs exactly two HTML files"));
            }
            Ok(Command::Classify {
                regular: files.remove(0),
                hidden: files.remove(0),
                config,
                explain,
                json,
            })
        }
        "simulate" => {
            let mut seed = 1u64;
            let mut sites = 30usize;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--seed" => seed = flag_value(&mut it, "--seed")?,
                    "--sites" => sites = flag_value(&mut it, "--sites")?,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Simulate { seed, sites })
        }
        "jar" => {
            let mut path = None;
            let mut site = None;
            let mut summary = false;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--site" => site = Some(flag_value::<String>(&mut it, "--site")?),
                    "--summary" => summary = true,
                    other if other.starts_with("--") => {
                        return Err(err(format!("unknown flag {other}")))
                    }
                    file => path = Some(file.to_string()),
                }
            }
            let path = path.ok_or_else(|| err("jar needs a file path"))?;
            Ok(Command::Jar { path, site, summary })
        }
        "serve" => {
            let defaults = cp_serve::ServeConfig::default();
            // A well-known port, where the library binds any free one.
            let mut port = 7070u16;
            let mut seed = defaults.seed;
            let mut workers = defaults.workers;
            let mut shards = defaults.shards;
            let mut queue = defaults.queue_capacity;
            let mut timeout_ms = defaults.read_timeout.as_millis() as u64;
            let mut chaos_rate = defaults.chaos_fault_rate;
            let mut data_dir = None;
            let mut fsync = defaults.fsync;
            let mut snapshot_every = defaults.snapshot_every;
            let mut storage_fault_rate = defaults.storage_fault_rate;
            let mut storage_fault_seed = defaults.storage_fault_seed;
            let mut world = defaults.world;
            let mut repl_port = defaults.repl_port;
            let mut repl_ack = defaults.repl_ack;
            let mut repl_followers = defaults.repl_followers;
            let mut repl_generation = defaults.repl_generation;
            let mut repl_backlog = defaults.repl_backlog;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--port" => port = flag_value(&mut it, "--port")?,
                    "--seed" => seed = flag_value(&mut it, "--seed")?,
                    "--workers" => workers = flag_value(&mut it, "--workers")?,
                    "--shards" => shards = flag_value(&mut it, "--shards")?,
                    "--queue" => queue = flag_value(&mut it, "--queue")?,
                    "--timeout-ms" => timeout_ms = flag_value(&mut it, "--timeout-ms")?,
                    "--chaos-rate" => chaos_rate = flag_value(&mut it, "--chaos-rate")?,
                    "--data-dir" => data_dir = Some(flag_value::<String>(&mut it, "--data-dir")?),
                    "--fsync" => {
                        let v: String = flag_value(&mut it, "--fsync")?;
                        fsync = cp_serve::FsyncPolicy::parse(&v).ok_or_else(|| {
                            err(format!("invalid --fsync {v:?}; use always, batch, or never"))
                        })?;
                    }
                    "--snapshot-every" => snapshot_every = flag_value(&mut it, "--snapshot-every")?,
                    "--storage-fault-rate" => {
                        storage_fault_rate = flag_value(&mut it, "--storage-fault-rate")?
                    }
                    "--storage-fault-seed" => {
                        storage_fault_seed = flag_value(&mut it, "--storage-fault-seed")?
                    }
                    "--world" => {
                        let v: String = flag_value(&mut it, "--world")?;
                        world = cp_serve::WorldKind::parse(&v)
                            .map_err(|e| err(format!("invalid --world {v:?}: {e}")))?;
                    }
                    "--repl-port" => repl_port = Some(flag_value(&mut it, "--repl-port")?),
                    "--repl-ack" => {
                        let v: String = flag_value(&mut it, "--repl-ack")?;
                        repl_ack = cp_serve::ReplAckPolicy::parse(&v).ok_or_else(|| {
                            err(format!("invalid --repl-ack {v:?}; use none, quorum, or all"))
                        })?;
                    }
                    "--repl-follower" => {
                        repl_followers.push(flag_value::<String>(&mut it, "--repl-follower")?)
                    }
                    "--repl-generation" => {
                        repl_generation = flag_value(&mut it, "--repl-generation")?
                    }
                    "--repl-backlog" => repl_backlog = flag_value(&mut it, "--repl-backlog")?,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            if repl_generation == 0 {
                return Err(err("--repl-generation must be at least 1"));
            }
            if repl_backlog == 0 {
                return Err(err("--repl-backlog must be at least 1 record"));
            }
            if !(0.0..=1.0).contains(&chaos_rate) {
                return Err(err("--chaos-rate must be in [0, 1]"));
            }
            if !(0.0..=1.0).contains(&storage_fault_rate) {
                return Err(err("--storage-fault-rate must be in [0, 1]"));
            }
            if data_dir.is_none() && storage_fault_rate > 0.0 {
                return Err(err("--storage-fault-rate needs --data-dir (nothing to fault)"));
            }
            Ok(Command::Serve {
                port,
                seed,
                workers,
                shards,
                queue,
                timeout_ms,
                chaos_rate,
                data_dir,
                fsync,
                snapshot_every,
                storage_fault_rate,
                storage_fault_seed,
                world,
                repl_port,
                repl_ack,
                repl_followers,
                repl_generation,
                repl_backlog,
            })
        }
        "chaos-proxy" => {
            let mut listen = "127.0.0.1:0".to_string();
            let mut target = None;
            let mut schedule = "open:0".to_string();
            let mut seed = 7u64;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--listen" => listen = flag_value(&mut it, "--listen")?,
                    "--target" => target = Some(flag_value::<String>(&mut it, "--target")?),
                    "--schedule" => schedule = flag_value(&mut it, "--schedule")?,
                    "--seed" => seed = flag_value(&mut it, "--seed")?,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            let target = target.ok_or_else(|| err("chaos-proxy needs --target HOST:PORT"))?;
            // Reject malformed schedules before binding anything.
            cp_serve::parse_schedule(&schedule)
                .map_err(|e| err(format!("invalid --schedule: {e}")))?;
            Ok(Command::ChaosProxy { listen, target, schedule, seed })
        }
        "route" => {
            let defaults = cp_serve::RouterConfig::default();
            // A well-known port, where the library binds any free one.
            let mut port = 7069u16;
            let mut backends = Vec::new();
            let mut workers = defaults.workers;
            let mut heartbeat_ms = defaults.heartbeat.as_millis() as u64;
            let mut miss_threshold = defaults.miss_threshold;
            let mut ack = defaults.ack;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--port" => port = flag_value(&mut it, "--port")?,
                    "--backend" => {
                        let v: String = flag_value(&mut it, "--backend")?;
                        backends.push(
                            cp_serve::BackendAddr::parse(&v)
                                .map_err(|e| err(format!("invalid --backend: {e}")))?,
                        );
                    }
                    "--workers" => workers = flag_value(&mut it, "--workers")?,
                    "--heartbeat-ms" => heartbeat_ms = flag_value(&mut it, "--heartbeat-ms")?,
                    "--miss-threshold" => miss_threshold = flag_value(&mut it, "--miss-threshold")?,
                    "--ack" => {
                        let v: String = flag_value(&mut it, "--ack")?;
                        ack = cp_serve::ReplAckPolicy::parse(&v).ok_or_else(|| {
                            err(format!("invalid --ack {v:?}; use none, quorum, or all"))
                        })?;
                    }
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            if backends.is_empty() {
                return Err(err("route needs at least one --backend HTTP_ADDR,REPL_ADDR"));
            }
            if heartbeat_ms == 0 {
                return Err(err("--heartbeat-ms must be at least 1"));
            }
            if miss_threshold == 0 {
                return Err(err("--miss-threshold must be at least 1"));
            }
            Ok(Command::Route { port, backends, workers, heartbeat_ms, miss_threshold, ack })
        }
        "get" => {
            let mut host = "127.0.0.1".to_string();
            let mut port = 0u16;
            let mut post = false;
            let mut path = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--host" => host = flag_value(&mut it, "--host")?,
                    "--port" => port = flag_value(&mut it, "--port")?,
                    "--post" => post = true,
                    other if other.starts_with("--") => {
                        return Err(err(format!("unknown flag {other}")))
                    }
                    target => path = Some(target.to_string()),
                }
            }
            if port == 0 {
                return Err(err("get needs --port pointing at a running server"));
            }
            let path = path.ok_or_else(|| err("get needs a request path, e.g. /v1/marks"))?;
            Ok(Command::Get { host, port, post, path })
        }
        "loadgen" => {
            let defaults = cp_serve::LoadgenConfig::default();
            let mut host = defaults.host;
            let mut port = defaults.port;
            let mut threads = defaults.threads;
            let mut connections = defaults.connections;
            let mut requests = defaults.requests;
            let mut seed = defaults.seed;
            let mut hosts = defaults.hosts;
            let mut zipf = defaults.zipf;
            let mut out = None;
            let mut marks_out = None;
            let mut retries = defaults.retries;
            let mut backoff_ms = defaults.backoff.as_millis() as u64;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--host" => host = flag_value(&mut it, "--host")?,
                    "--port" => port = flag_value(&mut it, "--port")?,
                    "--threads" => threads = flag_value(&mut it, "--threads")?,
                    "--connections" => connections = flag_value(&mut it, "--connections")?,
                    "--requests" => requests = flag_value(&mut it, "--requests")?,
                    "--seed" => seed = flag_value(&mut it, "--seed")?,
                    "--hosts" => hosts = Some(flag_value(&mut it, "--hosts")?),
                    "--zipf" => zipf = flag_value(&mut it, "--zipf")?,
                    "--out" => out = Some(flag_value::<String>(&mut it, "--out")?),
                    "--marks-out" => {
                        marks_out = Some(flag_value::<String>(&mut it, "--marks-out")?)
                    }
                    "--retries" => retries = flag_value(&mut it, "--retries")?,
                    "--backoff-ms" => backoff_ms = flag_value(&mut it, "--backoff-ms")?,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            if port == 0 {
                return Err(err("loadgen needs --port pointing at a running server"));
            }
            if hosts == Some(0) {
                return Err(err("--hosts must be at least 1"));
            }
            if connections == 0 {
                return Err(err("--connections must be at least 1"));
            }
            if !zipf.is_finite() || zipf < 0.0 {
                return Err(err("--zipf must be a finite exponent >= 0"));
            }
            Ok(Command::Loadgen {
                host,
                port,
                threads,
                connections,
                requests,
                seed,
                hosts,
                zipf,
                out,
                marks_out,
                retries,
                backoff_ms,
            })
        }
        "crawl" => {
            let defaults = cp_crawl::CrawlConfig::default();
            let mut world = defaults.world;
            let mut seed = defaults.seed;
            let mut workers = defaults.workers;
            let mut ticks = defaults.ticks;
            let mut duration_s = None;
            let mut ttl_s = None;
            let mut retries = defaults.retry.max_retries;
            let mut backoff_ms = defaults.retry.backoff.as_millis();
            let mut host = "127.0.0.1".to_string();
            let mut port = 0u16;
            let mut max_hosts = defaults.max_hosts;
            let mut extra_hosts = defaults.extra_hosts;
            let mut out = None;
            let mut marks_out = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--world" => {
                        let v: String = flag_value(&mut it, "--world")?;
                        world = cp_serve::WorldKind::parse(&v)
                            .map_err(|e| err(format!("invalid --world {v:?}: {e}")))?;
                    }
                    "--seed" => seed = flag_value(&mut it, "--seed")?,
                    "--workers" => workers = flag_value(&mut it, "--workers")?,
                    "--ticks" => ticks = Some(flag_value(&mut it, "--ticks")?),
                    "--duration" => duration_s = Some(flag_value(&mut it, "--duration")?),
                    "--ttl" => ttl_s = Some(flag_value(&mut it, "--ttl")?),
                    "--retries" => retries = flag_value(&mut it, "--retries")?,
                    "--backoff-ms" => backoff_ms = flag_value(&mut it, "--backoff-ms")?,
                    "--host" => host = flag_value(&mut it, "--host")?,
                    "--port" => port = flag_value(&mut it, "--port")?,
                    "--max-hosts" => max_hosts = Some(flag_value(&mut it, "--max-hosts")?),
                    "--extra-host" => {
                        extra_hosts.push(flag_value::<String>(&mut it, "--extra-host")?)
                    }
                    "--out" => out = Some(flag_value::<String>(&mut it, "--out")?),
                    "--marks-out" => {
                        marks_out = Some(flag_value::<String>(&mut it, "--marks-out")?)
                    }
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            if workers == 0 {
                return Err(err("--workers must be at least 1"));
            }
            if ttl_s == Some(0) {
                return Err(err("--ttl must be at least 1 second"));
            }
            Ok(Command::Crawl {
                world,
                seed,
                workers,
                ticks,
                duration_s,
                ttl_s,
                retries,
                backoff_ms,
                host,
                port,
                max_hosts,
                extra_hosts,
                out,
                marks_out,
            })
        }
        other => Err(err(format!("unknown subcommand {other:?}; try `cookiepicker help`"))),
    }
}

fn flag_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, CliError> {
    let v = it.next().ok_or_else(|| err(format!("{flag} needs a value")))?;
    v.parse().map_err(|_| err(format!("invalid value {v:?} for {flag}")))
}

/// Usage text.
pub const USAGE: &str = "\
cookiepicker — automatic cookie usage setting (DSN 2007 reproduction)

USAGE:
    cookiepicker classify <regular.html> <hidden.html> [--thresh1 F] [--thresh2 F] [--level N] [--explain] [--json]
    cookiepicker simulate [--seed N] [--sites N]
    cookiepicker jar <jar.json> [--site HOST] [--summary]
    cookiepicker serve [--port N] [--seed N] [--workers N] [--shards N] [--queue N] [--timeout-ms N] [--chaos-rate F]
                       [--world table1|uniform:N] [--data-dir DIR] [--fsync always|batch|never] [--snapshot-every N]
                       [--storage-fault-rate F] [--storage-fault-seed N]
                       [--repl-port N] [--repl-ack none|quorum|all] [--repl-follower ADDR]... [--repl-generation N]
                       [--repl-backlog N]
    cookiepicker route --backend HTTP_ADDR,REPL_ADDR [--backend ...]... [--port N] [--workers N]
                       [--heartbeat-ms N] [--miss-threshold N] [--ack none|quorum|all]
    cookiepicker chaos-proxy --target HOST:PORT [--listen HOST:PORT] [--schedule PHASE:MS,...] [--seed N]
    cookiepicker loadgen --port N [--host H] [--threads N] [--connections N] [--requests N] [--seed N] [--hosts N] [--zipf S]
                         [--retries N] [--backoff-ms N] [--out FILE] [--marks-out FILE]
    cookiepicker crawl [--world table1|uniform:N] [--seed N] [--workers N] [--ticks N] [--duration S] [--ttl S]
                       [--retries N] [--backoff-ms N] [--port N] [--host H] [--max-hosts N] [--extra-host H]...
                       [--out FILE] [--marks-out FILE]
    cookiepicker get --port N [--host H] [--post] PATH
    cookiepicker help
";

/// Executes a parsed command, writing human output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] for I/O problems or malformed inputs.
pub fn run(command: Command, out: &mut impl std::io::Write) -> Result<(), CliError> {
    match command {
        Command::Help => {
            write!(out, "{USAGE}").map_err(|e| err(e.to_string()))?;
        }
        Command::Classify { regular, hidden, config, explain: want_explain, json } => {
            let read = |p: &str| {
                std::fs::read_to_string(p).map_err(|e| err(format!("cannot read {p}: {e}")))
            };
            let reg_doc = parse_document(&read(&regular)?);
            let hid_doc = parse_document(&read(&hidden)?);
            let d = decide(&reg_doc, &hid_doc, &config);
            if json {
                // Exactly the serialization `/v1/classify` returns.
                writeln!(out, "{}", d.to_json().to_compact()).map_err(|e| err(e.to_string()))?;
                return Ok(());
            }
            writeln!(out, "NTreeSim(A,B,{}) = {:.4}", config.max_level, d.tree_sim)
                .map_err(|e| err(e.to_string()))?;
            writeln!(out, "NTextSim(S1,S2) = {:.4}", d.text_sim).map_err(|e| err(e.to_string()))?;
            writeln!(
                out,
                "verdict: {}",
                if d.cookies_caused_difference {
                    "difference caused by cookies (USEFUL)"
                } else {
                    "difference is page-dynamics noise (useless)"
                }
            )
            .map_err(|e| err(e.to_string()))?;
            if want_explain {
                let report = explain(&reg_doc, &hid_doc, &config);
                writeln!(out, "\nunmatched structure in regular version:")
                    .map_err(|e| err(e.to_string()))?;
                for p in &report.unmatched_regular {
                    writeln!(out, "  - {p}").map_err(|e| err(e.to_string()))?;
                }
                writeln!(out, "unmatched structure in hidden version:")
                    .map_err(|e| err(e.to_string()))?;
                for p in &report.unmatched_hidden {
                    writeln!(out, "  - {p}").map_err(|e| err(e.to_string()))?;
                }
                writeln!(out, "text contexts only in regular: {:?}", report.contexts_only_regular)
                    .map_err(|e| err(e.to_string()))?;
                writeln!(out, "text contexts only in hidden: {:?}", report.contexts_only_hidden)
                    .map_err(|e| err(e.to_string()))?;
            }
        }
        Command::Simulate { seed, sites } => {
            let population: Vec<_> =
                cp_webworld::table1_population(seed).into_iter().take(sites).collect();
            writeln!(
                out,
                "training CookiePicker on {} synthetic sites (seed {seed})...",
                population.len()
            )
            .map_err(|e| err(e.to_string()))?;
            let mut total = 0usize;
            let mut kept = 0usize;
            for spec in &population {
                let r = crate::simulate_site(spec, seed);
                writeln!(
                    out,
                    "  {:24} {:2} persistent -> keep {:2}, remove {:2}",
                    spec.domain,
                    r.persistent,
                    r.marked_useful,
                    r.persistent - r.marked_useful
                )
                .map_err(|e| err(e.to_string()))?;
                total += r.persistent;
                kept += r.marked_useful;
            }
            writeln!(
                out,
                "audit: {total} persistent cookies, {kept} kept, {} removable",
                total - kept
            )
            .map_err(|e| err(e.to_string()))?;
        }
        Command::Jar { path, site, summary } => {
            let json = std::fs::read_to_string(&path)
                .map_err(|e| err(format!("cannot read {path}: {e}")))?;
            let jar = CookieJar::from_json(&json).map_err(|e| err(format!("invalid jar: {e}")))?;
            let now = SimTime::EPOCH;
            if summary {
                let audit = cp_cookies::audit_jar(&jar, now);
                writeln!(
                    out,
                    "cookies: {} total, {} session, {} persistent",
                    audit.total, audit.session, audit.persistent
                )
                .map_err(|e| err(e.to_string()))?;
                writeln!(
                    out,
                    "useful: {}, removable tracking surface: {}",
                    audit.useful, audit.removable
                )
                .map_err(|e| err(e.to_string()))?;
                writeln!(
                    out,
                    "living >= 1 year: {} ({:.1}%)",
                    audit.year_plus,
                    100.0 * audit.year_plus_share()
                )
                .map_err(|e| err(e.to_string()))?;
                for (label, count) in &audit.lifetime_histogram {
                    writeln!(out, "  {label:12} {count}").map_err(|e| err(e.to_string()))?;
                }
                return Ok(());
            }
            for c in jar.iter() {
                if let Some(s) = &site {
                    if !c.domain_matches(s) {
                        continue;
                    }
                }
                writeln!(
                    out,
                    "{:30} {:12} persistent={} useful={} expired={}",
                    c.domain,
                    c.name,
                    c.is_persistent(),
                    c.useful(),
                    c.is_expired(now)
                )
                .map_err(|e| err(e.to_string()))?;
            }
        }
        Command::Serve {
            port,
            seed,
            workers,
            shards,
            queue,
            timeout_ms,
            chaos_rate,
            data_dir,
            fsync,
            snapshot_every,
            storage_fault_rate,
            storage_fault_seed,
            world,
            repl_port,
            repl_ack,
            repl_followers,
            repl_generation,
            repl_backlog,
        } => {
            let timeout = std::time::Duration::from_millis(timeout_ms);
            let durable = data_dir.is_some();
            let config = cp_serve::ServeConfig {
                port,
                seed,
                workers,
                shards,
                queue_capacity: queue,
                read_timeout: timeout,
                write_timeout: timeout,
                chaos_fault_rate: chaos_rate,
                data_dir: data_dir.map(std::path::PathBuf::from),
                fsync,
                snapshot_every,
                storage_fault_rate,
                storage_fault_seed,
                world,
                repl_port,
                repl_ack,
                repl_followers,
                repl_generation,
                repl_backlog,
                ..cp_serve::ServeConfig::default()
            };
            let mut server =
                cp_serve::start(config).map_err(|e| err(format!("cannot start: {e}")))?;
            writeln!(
                out,
                "cp-serve listening on http://{} (seed {seed}, world {world}, {workers} workers, {shards} shards)",
                server.addr()
            )
            .map_err(|e| err(e.to_string()))?;
            if let Some(addr) = server.repl_addr() {
                writeln!(out, "cp-serve replication on {addr} (ack {})", repl_ack.label())
                    .map_err(|e| err(e.to_string()))?;
            }
            if durable {
                let r = server.recovery();
                writeln!(
                    out,
                    "cp-serve durable (fsync {}): recovered {} snapshots, replayed {} records, \
                     discarded {} torn bytes in {:.1} ms",
                    fsync.label(),
                    r.snapshots_loaded,
                    r.records_replayed,
                    r.torn_tail_bytes,
                    r.recovery_micros as f64 / 1_000.0
                )
                .map_err(|e| err(e.to_string()))?;
            }
            // Flush so wrappers (bench scripts) can scrape the port before
            // the server exits.
            out.flush().map_err(|e| err(e.to_string()))?;
            server.wait();
            writeln!(out, "cp-serve: drained and stopped").map_err(|e| err(e.to_string()))?;
        }
        Command::Route { port, backends, workers, heartbeat_ms, miss_threshold, ack } => {
            let n = backends.len();
            let config = cp_serve::RouterConfig {
                port,
                backends,
                workers,
                heartbeat: std::time::Duration::from_millis(heartbeat_ms),
                miss_threshold,
                ack,
                ..cp_serve::RouterConfig::default()
            };
            let mut router =
                cp_serve::start_router(config).map_err(|e| err(format!("cannot start: {e}")))?;
            writeln!(
                out,
                "cp-route listening on http://{} ({n} backends, ack {}, heartbeat {heartbeat_ms} ms)",
                router.addr(),
                ack.label()
            )
            .map_err(|e| err(e.to_string()))?;
            out.flush().map_err(|e| err(e.to_string()))?;
            router.wait();
            writeln!(out, "cp-route: drained and stopped").map_err(|e| err(e.to_string()))?;
        }
        Command::ChaosProxy { listen, target, schedule, seed } => {
            let parsed = cp_serve::parse_schedule(&schedule)
                .map_err(|e| err(format!("invalid --schedule: {e}")))?;
            let proxy = cp_serve::ChaosProxy::start(&listen, &target, seed)
                .map_err(|e| err(format!("cannot start: {e}")))?;
            writeln!(out, "cp-chaos-proxy listening on {} -> {target} (seed {seed})", proxy.addr())
                .map_err(|e| err(e.to_string()))?;
            // Flush so wrappers (cluster.sh) can scrape the port before the
            // schedule runs to completion.
            out.flush().map_err(|e| err(e.to_string()))?;
            proxy.run_schedule(&parsed);
            writeln!(out, "cp-chaos-proxy: schedule complete").map_err(|e| err(e.to_string()))?;
        }
        Command::Get { host, port, post, path } => {
            let mut client = cp_serve::loadgen::Client::new(&host, port);
            let method = if post { "POST" } else { "GET" };
            let response = client
                .request(method, &path, b"")
                .map_err(|e| err(format!("{method} {path} failed: {e}")))?;
            if response.status >= 400 {
                return Err(err(format!("{method} {path} -> {}", response.status)));
            }
            write!(out, "{}", response.body_string()).map_err(|e| err(e.to_string()))?;
        }
        Command::Loadgen {
            host,
            port,
            threads,
            connections,
            requests,
            seed,
            hosts,
            zipf,
            out: out_path,
            marks_out,
            retries,
            backoff_ms,
        } => {
            let config = cp_serve::LoadgenConfig {
                host,
                port,
                threads,
                connections,
                requests,
                seed,
                hosts,
                zipf,
                retries,
                backoff: std::time::Duration::from_millis(backoff_ms),
            };
            let report =
                cp_serve::loadgen::run(&config).map_err(|e| err(format!("loadgen: {e}")))?;
            let json = report.to_json().to_pretty();
            writeln!(out, "{json}").map_err(|e| err(e.to_string()))?;
            if let Some(path) = out_path {
                std::fs::write(&path, format!("{json}\n"))
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?;
            }
            if let Some(path) = marks_out {
                let mut lines = report.marks.join("\n");
                if !lines.is_empty() {
                    lines.push('\n');
                }
                std::fs::write(&path, lines)
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?;
            }
        }
        Command::Crawl {
            world,
            seed,
            workers,
            ticks,
            duration_s,
            ttl_s,
            retries,
            backoff_ms,
            host,
            port,
            max_hosts,
            extra_hosts,
            out: out_path,
            marks_out,
        } => {
            use cp_crawl::TICK_MILLIS;
            let retry = cookiepicker_core::RetryPolicy {
                max_retries: retries,
                backoff: cp_cookies::SimDuration::from_millis(backoff_ms),
                ..cookiepicker_core::RetryPolicy::default()
            };
            let config = cp_crawl::CrawlConfig {
                seed,
                world,
                workers,
                ticks,
                duration: duration_s.map(std::time::Duration::from_secs),
                ttl_ticks: ttl_s.map(|s| (s * 1_000 / TICK_MILLIS).max(1)),
                retry,
                max_hosts,
                extra_hosts,
                ..cp_crawl::CrawlConfig::default()
            };
            let metrics = std::sync::Arc::new(cp_serve::metrics::ServiceMetrics::new());
            let report = if port == 0 {
                // In-process: embed the world and store right here — the
                // crawl needs no server and no load generator.
                let picker = CookiePickerConfig::default();
                let store = cp_serve::ShardedStore::new(16, picker.stability_window);
                let driver = cp_crawl::InProcessDriver::new(
                    cp_serve::EmbeddedWorld::with_world(seed, world, cp_serve::DEFAULT_SITE_CACHE),
                    store,
                    picker,
                    cp_serve::AnalysisCache::new(512),
                    std::sync::Arc::clone(&metrics),
                );
                cp_crawl::crawl(&config, &driver, &metrics)
            } else {
                let driver = cp_crawl::HttpDriver::new(&host, port, &config.retry);
                cp_crawl::crawl(&config, &driver, &metrics)
            };
            let json = report.to_json().to_pretty();
            writeln!(out, "{json}").map_err(|e| err(e.to_string()))?;
            if let Some(path) = out_path {
                std::fs::write(&path, format!("{json}\n"))
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?;
            }
            if let Some(path) = marks_out {
                let mut lines = report.marks.join("\n");
                if !lines.is_empty() {
                    lines.push('\n');
                }
                std::fs::write(&path, lines)
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_help_variants() {
        assert_eq!(parse_args(Vec::<String>::new()).unwrap(), Command::Help);
        assert_eq!(parse_args(["help"]).unwrap(), Command::Help);
        assert_eq!(parse_args(["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn parse_classify() {
        let cmd = parse_args([
            "classify",
            "a.html",
            "b.html",
            "--explain",
            "--thresh1",
            "0.7",
            "--level",
            "3",
        ])
        .unwrap();
        let Command::Classify { regular, hidden, config, explain, json } = cmd else { panic!() };
        assert_eq!(regular, "a.html");
        assert_eq!(hidden, "b.html");
        assert!(explain);
        assert!(!json);
        assert_eq!(config.thresh1, 0.7);
        assert_eq!(config.max_level, 3);
        assert_eq!(config.thresh2, 0.85, "unset flags keep defaults");
    }

    #[test]
    fn parse_classify_errors() {
        assert!(parse_args(["classify", "only-one.html"]).is_err());
        assert!(parse_args(["classify", "a", "b", "--thresh1"]).is_err());
        assert!(parse_args(["classify", "a", "b", "--thresh1", "NaNope"]).is_err());
        assert!(parse_args(["classify", "a", "b", "--bogus"]).is_err());
    }

    #[test]
    fn parse_simulate_and_jar() {
        assert_eq!(
            parse_args(["simulate", "--seed", "9", "--sites", "5"]).unwrap(),
            Command::Simulate { seed: 9, sites: 5 }
        );
        assert_eq!(
            parse_args(["jar", "cookies.json", "--site", "a.example"]).unwrap(),
            Command::Jar {
                path: "cookies.json".into(),
                site: Some("a.example".into()),
                summary: false
            }
        );
        assert!(matches!(
            parse_args(["jar", "cookies.json", "--summary"]).unwrap(),
            Command::Jar { summary: true, .. }
        ));
        assert!(parse_args(["jar"]).is_err());
        assert!(parse_args(["frobnicate"]).is_err());
    }

    #[test]
    fn parse_serve_and_loadgen() {
        assert_eq!(
            parse_args(["serve", "--port", "0", "--seed", "7", "--workers", "2"]).unwrap(),
            Command::Serve {
                port: 0,
                seed: 7,
                workers: 2,
                shards: 16,
                queue: 128,
                timeout_ms: 5_000,
                chaos_rate: 0.0,
                data_dir: None,
                fsync: cp_serve::FsyncPolicy::Batch,
                snapshot_every: cp_serve::store::DEFAULT_SNAPSHOT_EVERY,
                storage_fault_rate: 0.0,
                storage_fault_seed: 0,
                world: cp_serve::WorldKind::Table1,
                repl_port: None,
                repl_ack: cp_serve::ReplAckPolicy::Quorum,
                repl_followers: vec![],
                repl_generation: 1,
                repl_backlog: cp_serve::replication::DEFAULT_BACKLOG_CAP,
            }
        );
        assert!(matches!(
            parse_args(["serve", "--chaos-rate", "0.1"]).unwrap(),
            Command::Serve { port: 7070, chaos_rate, .. } if chaos_rate == 0.1
        ));
        assert_eq!(
            parse_args(["loadgen", "--port", "7070", "--requests", "500", "--out", "r.json"])
                .unwrap(),
            Command::Loadgen {
                host: "127.0.0.1".into(),
                port: 7070,
                threads: 4,
                connections: 1,
                requests: 500,
                seed: 7,
                hosts: None,
                zipf: 1.0,
                out: Some("r.json".into()),
                marks_out: None,
                retries: 1,
                backoff_ms: 5,
            }
        );
        assert!(matches!(
            parse_args(["loadgen", "--port", "7070", "--marks-out", "marks.txt"]).unwrap(),
            Command::Loadgen { marks_out: Some(ref p), .. } if p == "marks.txt"
        ));
        assert!(matches!(
            parse_args(["loadgen", "--port", "7070", "--retries", "3", "--backoff-ms", "20"])
                .unwrap(),
            Command::Loadgen { retries: 3, backoff_ms: 20, .. }
        ));
        assert!(matches!(
            parse_args(["loadgen", "--port", "7070", "--connections", "8"]).unwrap(),
            Command::Loadgen { connections: 8, .. }
        ));
        assert!(
            parse_args(["loadgen", "--port", "7070", "--connections", "0"]).is_err(),
            "connections must be at least 1"
        );
        assert!(parse_args(["serve", "--bogus"]).is_err());
        assert!(parse_args(["serve", "--chaos-rate", "1.5"]).is_err(), "rate must be in [0, 1]");
        assert!(parse_args(["loadgen", "--threads", "2"]).is_err(), "loadgen requires --port");
    }

    #[test]
    fn bare_subcommands_parse_to_the_library_defaults() {
        let serve = cp_serve::ServeConfig::default();
        assert_eq!(
            parse_args(["serve"]).unwrap(),
            Command::Serve {
                port: 7070,
                seed: serve.seed,
                workers: serve.workers,
                shards: serve.shards,
                queue: serve.queue_capacity,
                timeout_ms: serve.read_timeout.as_millis() as u64,
                chaos_rate: serve.chaos_fault_rate,
                data_dir: None,
                fsync: serve.fsync,
                snapshot_every: serve.snapshot_every,
                storage_fault_rate: serve.storage_fault_rate,
                storage_fault_seed: serve.storage_fault_seed,
                world: serve.world,
                repl_port: serve.repl_port,
                repl_ack: serve.repl_ack,
                repl_followers: serve.repl_followers,
                repl_generation: serve.repl_generation,
                repl_backlog: serve.repl_backlog,
            }
        );
        assert_eq!(serve.read_timeout, serve.write_timeout, "--timeout-ms sets both");

        let route = cp_serve::RouterConfig::default();
        let backend = cp_serve::BackendAddr::parse("127.0.0.1:7070,127.0.0.1:7170").unwrap();
        assert_eq!(
            parse_args(["route", "--backend", "127.0.0.1:7070,127.0.0.1:7170"]).unwrap(),
            Command::Route {
                port: 7069,
                backends: vec![backend],
                workers: route.workers,
                heartbeat_ms: route.heartbeat.as_millis() as u64,
                miss_threshold: route.miss_threshold,
                ack: route.ack,
            }
        );

        let loadgen = cp_serve::LoadgenConfig::default();
        assert_eq!(
            parse_args(["loadgen", "--port", "7070"]).unwrap(),
            Command::Loadgen {
                host: loadgen.host,
                port: 7070,
                threads: loadgen.threads,
                connections: loadgen.connections,
                requests: loadgen.requests,
                seed: loadgen.seed,
                hosts: loadgen.hosts,
                zipf: loadgen.zipf,
                out: None,
                marks_out: None,
                retries: loadgen.retries,
                backoff_ms: loadgen.backoff.as_millis() as u64,
            }
        );

        let crawl = cp_crawl::CrawlConfig::default();
        assert_eq!(
            parse_args(["crawl"]).unwrap(),
            Command::Crawl {
                world: crawl.world,
                seed: crawl.seed,
                workers: crawl.workers,
                ticks: crawl.ticks,
                duration_s: None,
                ttl_s: None,
                retries: crawl.retry.max_retries,
                backoff_ms: crawl.retry.backoff.as_millis(),
                host: "127.0.0.1".into(),
                port: 0,
                max_hosts: crawl.max_hosts,
                extra_hosts: crawl.extra_hosts,
                out: None,
                marks_out: None,
            }
        );
    }

    #[test]
    fn parse_world_and_zipf_flags() {
        assert!(matches!(
            parse_args(["serve", "--world", "uniform:1000000"]).unwrap(),
            Command::Serve { world: cp_serve::WorldKind::Uniform(1_000_000), .. }
        ));
        assert!(matches!(
            parse_args(["serve", "--world", "table1"]).unwrap(),
            Command::Serve { world: cp_serve::WorldKind::Table1, .. }
        ));
        assert!(parse_args(["serve", "--world", "uniform:0"]).is_err(), "empty world");
        assert!(parse_args(["serve", "--world", "galaxy"]).is_err(), "unknown kind");
        assert!(matches!(
            parse_args(["loadgen", "--port", "1", "--hosts", "1000000", "--zipf", "1.1"]).unwrap(),
            Command::Loadgen { hosts: Some(1_000_000), zipf, .. } if zipf == 1.1
        ));
        assert!(parse_args(["loadgen", "--port", "1", "--hosts", "0"]).is_err());
        assert!(parse_args(["loadgen", "--port", "1", "--zipf", "-1"]).is_err());
        assert!(parse_args(["loadgen", "--port", "1", "--zipf", "inf"]).is_err());
    }

    #[test]
    fn parse_serve_durability_flags() {
        let cmd = parse_args([
            "serve",
            "--data-dir",
            "/tmp/cp-data",
            "--fsync",
            "always",
            "--snapshot-every",
            "64",
            "--storage-fault-rate",
            "0.05",
            "--storage-fault-seed",
            "42",
        ])
        .unwrap();
        let Command::Serve {
            data_dir,
            fsync,
            snapshot_every,
            storage_fault_rate,
            storage_fault_seed,
            ..
        } = cmd
        else {
            panic!("expected serve")
        };
        assert_eq!(data_dir.as_deref(), Some("/tmp/cp-data"));
        assert_eq!(fsync, cp_serve::FsyncPolicy::Always);
        assert_eq!(snapshot_every, 64);
        assert_eq!(storage_fault_rate, 0.05);
        assert_eq!(storage_fault_seed, 42);
        assert!(parse_args(["serve", "--fsync", "sometimes"]).is_err(), "unknown policy");
        assert!(
            parse_args(["serve", "--data-dir", "/tmp/d", "--storage-fault-rate", "1.5"]).is_err(),
            "rate must be in [0, 1]"
        );
        assert!(
            parse_args(["serve", "--storage-fault-rate", "0.1"]).is_err(),
            "storage faults need a data dir"
        );
    }

    #[test]
    fn parse_get() {
        assert_eq!(
            parse_args(["get", "--port", "7070", "/v1/marks"]).unwrap(),
            Command::Get {
                host: "127.0.0.1".into(),
                port: 7070,
                post: false,
                path: "/v1/marks".into()
            }
        );
        assert!(matches!(
            parse_args(["get", "--port", "7070", "--post", "/v1/shutdown"]).unwrap(),
            Command::Get { post: true, .. }
        ));
        assert!(parse_args(["get", "/v1/marks"]).is_err(), "get requires --port");
        assert!(parse_args(["get", "--port", "7070"]).is_err(), "get requires a path");
    }

    #[test]
    fn parse_crawl() {
        let cmd = parse_args([
            "crawl",
            "--world",
            "uniform:1000",
            "--seed",
            "9",
            "--workers",
            "8",
            "--ttl",
            "30",
            "--retries",
            "5",
            "--backoff-ms",
            "100",
            "--max-hosts",
            "500",
            "--extra-host",
            "stale1.example",
            "--extra-host",
            "stale2.example",
            "--out",
            "crawl.json",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Crawl {
                world: cp_serve::WorldKind::Uniform(1_000),
                seed: 9,
                workers: 8,
                ticks: None,
                duration_s: None,
                ttl_s: Some(30),
                retries: 5,
                backoff_ms: 100,
                host: "127.0.0.1".into(),
                port: 0,
                max_hosts: Some(500),
                extra_hosts: vec!["stale1.example".into(), "stale2.example".into()],
                out: Some("crawl.json".into()),
                marks_out: None,
            }
        );
        // Defaults: in-process, the core retry policy's budget and backoff.
        let defaults = cookiepicker_core::RetryPolicy::default();
        assert!(matches!(
            parse_args(["crawl"]).unwrap(),
            Command::Crawl { port: 0, world: cp_serve::WorldKind::Table1, retries, backoff_ms, .. }
                if retries == defaults.max_retries && backoff_ms == defaults.backoff.as_millis()
        ));
        assert!(parse_args(["crawl", "--workers", "0"]).is_err(), "needs a worker");
        assert!(parse_args(["crawl", "--ttl", "0"]).is_err(), "zero TTL would thrash");
        assert!(parse_args(["crawl", "--world", "galaxy"]).is_err());
        assert!(parse_args(["crawl", "--bogus"]).is_err());
    }

    #[test]
    fn parse_serve_replication_flags() {
        let cmd = parse_args([
            "serve",
            "--repl-port",
            "7171",
            "--repl-ack",
            "all",
            "--repl-follower",
            "127.0.0.1:7271",
            "--repl-follower",
            "127.0.0.1:7272",
            "--repl-generation",
            "3",
        ])
        .unwrap();
        let Command::Serve { repl_port, repl_ack, repl_followers, repl_generation, .. } = cmd
        else {
            panic!("expected serve")
        };
        assert_eq!(repl_port, Some(7171));
        assert_eq!(repl_ack, cp_serve::ReplAckPolicy::All);
        assert_eq!(repl_followers, vec!["127.0.0.1:7271".to_string(), "127.0.0.1:7272".into()]);
        assert_eq!(repl_generation, 3);
        assert!(parse_args(["serve", "--repl-ack", "most"]).is_err(), "unknown policy");
        assert!(parse_args(["serve", "--repl-generation", "0"]).is_err(), "generations start at 1");
        assert!(matches!(
            parse_args(["serve", "--repl-backlog", "64"]).unwrap(),
            Command::Serve { repl_backlog: 64, .. }
        ));
        assert!(
            parse_args(["serve", "--repl-backlog", "0"]).is_err(),
            "empty ring replays nothing"
        );
    }

    #[test]
    fn parse_chaos_proxy() {
        assert_eq!(
            parse_args([
                "chaos-proxy",
                "--listen",
                "127.0.0.1:7555",
                "--target",
                "127.0.0.1:7170",
                "--schedule",
                "open:500,cut:1000,open:0",
                "--seed",
                "9",
            ])
            .unwrap(),
            Command::ChaosProxy {
                listen: "127.0.0.1:7555".into(),
                target: "127.0.0.1:7170".into(),
                schedule: "open:500,cut:1000,open:0".into(),
                seed: 9,
            }
        );
        // Defaults: any free port, hold open forever.
        assert!(matches!(
            parse_args(["chaos-proxy", "--target", "127.0.0.1:1"]).unwrap(),
            Command::ChaosProxy { ref listen, ref schedule, seed: 7, .. }
                if listen == "127.0.0.1:0" && schedule == "open:0"
        ));
        assert!(parse_args(["chaos-proxy"]).is_err(), "needs a target");
        assert!(
            parse_args(["chaos-proxy", "--target", "127.0.0.1:1", "--schedule", "warp:10"])
                .is_err(),
            "unknown phase rejected at parse time"
        );
        assert!(parse_args(["chaos-proxy", "--target", "127.0.0.1:1", "--bogus"]).is_err());
    }

    #[test]
    fn parse_route() {
        let cmd = parse_args([
            "route",
            "--port",
            "7069",
            "--backend",
            "127.0.0.1:7070,127.0.0.1:7170",
            "--backend",
            "127.0.0.1:7071,127.0.0.1:7171",
            "--workers",
            "2",
            "--heartbeat-ms",
            "100",
            "--miss-threshold",
            "5",
            "--ack",
            "none",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Route {
                port: 7069,
                backends: vec![
                    cp_serve::BackendAddr::parse("127.0.0.1:7070,127.0.0.1:7170").unwrap(),
                    cp_serve::BackendAddr::parse("127.0.0.1:7071,127.0.0.1:7171").unwrap(),
                ],
                workers: 2,
                heartbeat_ms: 100,
                miss_threshold: 5,
                ack: cp_serve::ReplAckPolicy::None,
            }
        );
        // Defaults mirror RouterConfig's.
        let defaults = cp_serve::RouterConfig::default();
        assert!(matches!(
            parse_args(["route", "--backend", "127.0.0.1:1,127.0.0.1:2"]).unwrap(),
            Command::Route { port: 7069, workers: 4, heartbeat_ms, miss_threshold, ack, .. }
                if heartbeat_ms == defaults.heartbeat.as_millis() as u64
                    && miss_threshold == defaults.miss_threshold
                    && ack == cp_serve::ReplAckPolicy::Quorum
        ));
        assert!(parse_args(["route"]).is_err(), "route needs a backend");
        assert!(parse_args(["route", "--backend", "no-comma"]).is_err(), "malformed pair");
        assert!(
            parse_args(["route", "--backend", "127.0.0.1:1,127.0.0.1:2", "--heartbeat-ms", "0"])
                .is_err(),
            "zero heartbeat would spin"
        );
        assert!(
            parse_args(["route", "--backend", "127.0.0.1:1,127.0.0.1:2", "--miss-threshold", "0"])
                .is_err(),
            "zero misses would flap"
        );
        assert!(
            parse_args(["route", "--backend", "127.0.0.1:1,127.0.0.1:2", "--ack", "most"]).is_err(),
            "unknown policy"
        );
    }

    #[test]
    fn usage_lists_every_subcommand() {
        for sub in [
            "classify",
            "simulate",
            "jar",
            "serve",
            "route",
            "chaos-proxy",
            "loadgen",
            "crawl",
            "get",
            "help",
        ] {
            assert!(
                USAGE.lines().any(|l| l.trim_start().starts_with(&format!("cookiepicker {sub}"))),
                "USAGE must document {sub}"
            );
        }
    }

    #[test]
    fn classify_json_emits_service_serialization() {
        let dir = std::env::temp_dir().join(format!("cp-cli-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.html");
        std::fs::write(&a, "<body><p>same</p></body>").unwrap();
        let cmd =
            parse_args(["classify", a.to_str().unwrap(), a.to_str().unwrap(), "--json"]).unwrap();
        let mut out = Vec::new();
        run(cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let parsed = cp_runtime::json::Json::parse(text.trim()).unwrap();
        use cp_runtime::json::FromJson;
        let decision = cookiepicker_core::Decision::from_json(&parsed).unwrap();
        assert!(!decision.cookies_caused_difference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classify_runs_on_files() {
        let dir = std::env::temp_dir().join(format!("cp-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.html");
        let b = dir.join("b.html");
        std::fs::write(
            &a,
            "<body><div id=s><ul><li>one</li><li>two</li></ul></div><p>base</p></body>",
        )
        .unwrap();
        std::fs::write(&b, "<body><p>base</p></body>").unwrap();
        let cmd = parse_args(["classify", a.to_str().unwrap(), b.to_str().unwrap(), "--explain"])
            .unwrap();
        let mut out = Vec::new();
        run(cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("NTreeSim"));
        assert!(text.contains("USEFUL"), "{text}");
        assert!(text.contains("unmatched structure"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classify_identical_files_is_noise() {
        let dir = std::env::temp_dir().join(format!("cp-cli-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("same.html");
        std::fs::write(&a, "<body><p>hello</p></body>").unwrap();
        let cmd = parse_args(["classify", a.to_str().unwrap(), a.to_str().unwrap()]).unwrap();
        let mut out = Vec::new();
        run(cmd, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("noise"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jar_subcommand_reads_persisted_jar() {
        use cp_cookies::Cookie;
        let dir = std::env::temp_dir().join(format!("cp-cli-test3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut jar = CookieJar::new();
        jar.store(Cookie::new("k", "v", "x.example", SimTime::EPOCH), SimTime::EPOCH);
        let path = dir.join("jar.json");
        std::fs::write(&path, jar.to_json()).unwrap();
        let cmd = parse_args(["jar", path.to_str().unwrap()]).unwrap();
        let mut out = Vec::new();
        run(cmd, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("x.example"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_a_cli_error() {
        let cmd = parse_args(["classify", "/nonexistent/a", "/nonexistent/b"]).unwrap();
        let mut out = Vec::new();
        assert!(run(cmd, &mut out).is_err());
    }
}
