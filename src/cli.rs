//! The `cookiepicker` command-line interface: the paper's decision
//! algorithm on two page files (`classify`), a seeded training run and a
//! jar inspector (`simulate`, `jar`), and the serving stack's node,
//! router, fault proxy, load generator, crawler and one-shot client
//! (`serve`, `route`, `chaos-proxy`, `loadgen`, `crawl`, `get`).
//!
//! Each subcommand declares its flags in one table. A row gives the flag
//! as USAGE shows it and a setter that parses the value, range check
//! included, straight into the config the subcommand runs with.
//! [`parse_args`] reads the arguments through those rows into a typed
//! [`Command`], so parsing is unit-testable, and [`usage`] renders USAGE
//! from the same rows, one row list per line.

use std::fmt;
use std::io::Write;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use cookiepicker_core::{decide, explain, CookiePickerConfig};
use cp_cookies::{CookieJar, SimDuration, SimTime};
use cp_crawl::{CrawlConfig, InProcessDriver, TICK_MILLIS};
use cp_html::parse_document;
use cp_runtime::json::ToJson;
use cp_serve::metrics::ServiceMetrics;
use cp_serve::{
    AnalysisCache, BackendAddr, EmbeddedWorld, FsyncPolicy, LoadgenConfig, ReplAckPolicy,
    RouterConfig, ServeConfig, ShardedStore, WorldKind, DEFAULT_SITE_CACHE,
};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Compare two HTML files with the decision algorithm.
    Classify(Classify),
    /// Run a seeded population simulation and print the audit.
    Simulate(Simulate),
    /// Inspect a persisted jar file.
    Jar(Jar),
    /// Run the decision service.
    Serve(ServeConfig),
    /// Run the cluster router in front of replicated cp-serve backends.
    Route(RouterConfig),
    /// Run the deterministic TCP fault proxy between a client and a
    /// server (partition/stall/drop/throttle schedules for chaos gates).
    ChaosProxy(ChaosProxy),
    /// One HTTP request against a running service (the crash harness's
    /// portable substitute for curl/nc).
    Get(Get),
    /// Drive a running service with a seeded load mix.
    Loadgen(Loadgen),
    /// Run the autonomous frontier crawler.
    Crawl(Crawl),
    /// Print usage.
    Help,
}

/// `classify`'s arguments: the regular (cookies-enabled) and hidden
/// (cookies-disabled) page files, and the decision parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Classify {
    pub(crate) regular: String,
    pub(crate) hidden: String,
    pub(crate) config: CookiePickerConfig,
    /// Also print which structure and text drove the verdict.
    pub(crate) explain: bool,
    /// Print the decision as `/v1/classify` serializes it instead.
    pub(crate) json: bool,
}

/// `simulate`'s arguments: the population seed, and how many of its sites
/// to train on.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulate {
    pub(crate) seed: u64,
    pub(crate) sites: usize,
}

/// `jar`'s arguments: the jar file, and whether to list one site's cookies
/// or print the privacy audit instead of every cookie.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Jar {
    pub(crate) path: String,
    pub(crate) site: Option<String>,
    pub(crate) summary: bool,
}

/// `chaos-proxy`'s arguments: the address to listen on, the address to
/// forward to, the fault schedule (e.g. `open:500,cut:1000,open:0`), and
/// the seed of the throttle's chunk sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosProxy {
    pub(crate) listen: String,
    pub(crate) target: String,
    pub(crate) schedule: String,
    pub(crate) seed: u64,
}

/// `get`'s arguments: one request for `path`, a bodyless POST if `post`.
#[derive(Debug, Clone, PartialEq)]
pub struct Get {
    pub(crate) host: String,
    pub(crate) port: u16,
    pub(crate) post: bool,
    pub(crate) path: String,
}

/// `loadgen`'s arguments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Loadgen {
    pub(crate) config: LoadgenConfig,
    pub(crate) outputs: Outputs,
}

/// `crawl`'s arguments: the crawl, and the server it drives, or an
/// embedded world in-process when `port` is 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Crawl {
    pub(crate) config: CrawlConfig,
    pub(crate) host: String,
    pub(crate) port: u16,
    pub(crate) outputs: Outputs,
}

/// Where `--out` and `--marks-out` save a run's JSON report and its sorted
/// `"host cookie"` mark lines (the chaos gate diffs two of these).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outputs {
    pub(crate) report: Option<String>,
    pub(crate) marks: Option<String>,
}

impl Outputs {
    /// Prints the JSON report to `out`, then saves it and the marks where
    /// asked.
    fn write(&self, out: &mut impl Write, json: &str, marks: &[String]) -> Result<(), CliError> {
        writeln!(out, "{json}")?;
        if let Some(path) = &self.report {
            write_file(path, format!("{json}\n"))?;
        }
        if let Some(path) = &self.marks {
            write_file(path, marks.iter().map(|mark| format!("{mark}\n")).collect())?;
        }
        Ok(())
    }
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))
}

fn write_file(path: &str, text: String) -> Result<(), CliError> {
    std::fs::write(path, text).map_err(|e| err(format!("cannot write {path}: {e}")))
}

/// Error produced by [`parse_args`] and [`run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// `Ok` if `ok`, else the error `msg`.
fn need(ok: bool, msg: &str) -> Result<(), CliError> {
    ok.then_some(()).ok_or_else(|| err(msg))
}

/// Maps a library error `e` to the CLI error `"{what}: {e}"`.
fn context<E: fmt::Display>(what: &str) -> impl FnOnce(E) -> CliError + '_ {
    move |e| err(format!("{what}: {e}"))
}

/// Parses a flag's value into the subcommand's target.
type Setter<T> = fn(&mut T, Value<'_>) -> Result<(), CliError>;

/// One row of a subcommand's flag table: the flag exactly as USAGE shows
/// it, and the setter that parses its value into the target.
///
/// The USAGE text declares the flag: its first word is the name, and the
/// second, if any, the value's metavariable. Brackets mark it optional
/// and `...` repeatable; a flag with no metavariable is a switch, whose
/// setter is given `true`. A row that starts with neither `--` nor `[--`
/// is an operand: each argument that is not a flag goes to the next one.
struct Flag<T>(&'static str, Setter<T>);

impl<T> Flag<T> {
    /// The flag's name and metavariable (empty for a switch), or `None`
    /// for an operand.
    fn parts(&self) -> Option<(&'static str, &'static str)> {
        let mut words = self.0.trim_start_matches('[').split([' ', ']']);
        let name = words.next().filter(|word| word.starts_with("--"))?;
        Some((name, words.next().unwrap_or("")))
    }
}

/// A flag's value as typed, with its name and metavariable for error
/// messages.
#[derive(Clone, Copy)]
struct Value<'a> {
    flag: &'static str,
    meta: &'static str,
    text: &'a str,
}

impl Value<'_> {
    fn get<T: FromStr>(self) -> Result<T, CliError> {
        self.text
            .parse()
            .map_err(|_| err(format!("invalid value {:?} for {}", self.text, self.flag)))
    }

    /// The value, if it passes `ok`; `"{flag} {rule}"` if it does not.
    fn check<T: FromStr>(self, ok: fn(&T) -> bool, rule: &str) -> Result<T, CliError> {
        let value = self.get()?;
        ok(&value).then_some(value).ok_or_else(|| err(format!("{} {rule}", self.flag)))
    }

    /// A count or period that must not be zero.
    fn nonzero<T: FromStr + Default + PartialEq>(self) -> Result<T, CliError> {
        self.check(|n| *n != T::default(), "must be at least 1")
    }

    /// A rate or threshold in `[0, 1]`; NaN is not.
    fn unit(self) -> Result<f64, CliError> {
        self.check(|x| (0.0..=1.0).contains(x), "must be in [0, 1]")
    }

    /// One of the names the metavariable lists, as `a|b|c`.
    fn pick<T>(self, parse: fn(&str) -> Option<T>) -> Result<T, CliError> {
        parse(self.text).ok_or_else(|| {
            let (rest, last) = self.meta.rsplit_once('|').unwrap_or(("", self.meta));
            let rest = rest.replace('|', ", ");
            err(format!("invalid {} {:?}; use {rest}, or {last}", self.flag, self.text))
        })
    }

    fn world(self) -> Result<WorldKind, CliError> {
        WorldKind::parse(self.text)
            .map_err(|e| err(format!("invalid {} {:?}: {e}", self.flag, self.text)))
    }
}

/// One subcommand: its flag table and what its arguments build.
struct Sub<T: 'static> {
    name: &'static str,
    /// The target before any flag: the library's defaults and the CLI's.
    start: fn() -> T,
    /// The flag table, one row list per USAGE line.
    lines: &'static [&'static [Flag<T>]],
    /// What no one row can check: required flags and operands, and rules
    /// across flags.
    check: fn(&T) -> Result<(), CliError>,
    command: fn(T) -> Command,
}

/// A subcommand with its target type erased, so that every subcommand
/// fits one list.
trait Spec: Sync {
    fn name(&self) -> &'static str;
    fn parse(&self, args: &[String]) -> Result<Command, CliError>;
    fn usage(&self, out: &mut String);
}

impl<T: 'static> Spec for Sub<T> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn parse(&self, args: &[String]) -> Result<Command, CliError> {
        let rows = || self.lines.iter().flat_map(|line| line.iter());
        let mut operands = rows().filter(|row| row.parts().is_none()).peekable();
        let takes_operands = operands.peek().is_some();
        let mut target = (self.start)();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let named = |row: &Flag<T>| row.parts().filter(|(name, _)| name == arg);
            match rows().find_map(|row| Some((row.1, named(row)?))) {
                Some((set, (flag, meta))) => {
                    let text = match meta {
                        "" => "true",
                        _ => args.next().ok_or_else(|| err(format!("{arg} needs a value")))?,
                    };
                    set(&mut target, Value { flag, meta, text })?;
                }
                None if takes_operands && !arg.starts_with("--") => {
                    let row = operands.next();
                    let row = row.ok_or_else(|| err(format!("unexpected operand {arg:?}")))?;
                    (row.1)(&mut target, Value { flag: row.0, meta: "", text: arg })?;
                }
                None => return Err(err(format!("unknown flag {arg}"))),
            }
        }
        (self.check)(&target)?;
        Ok((self.command)(target))
    }

    fn usage(&self, out: &mut String) {
        let head = format!("    cookiepicker {} ", self.name);
        for (i, line) in self.lines.iter().enumerate() {
            let words: Vec<&str> = line.iter().map(|row| row.0).collect();
            let indent = if i == 0 { head.clone() } else { " ".repeat(head.len()) };
            out.push_str(&format!("{indent}{}\n", words.join(" ")));
        }
    }
}

static CLASSIFY: Sub<Classify> = Sub {
    name: "classify",
    start: Classify::default,
    lines: &[&[
        Flag("<regular.html>", |c, v| v.get().map(|x| c.regular = x)),
        Flag("<hidden.html>", |c, v| v.get().map(|x| c.hidden = x)),
        Flag("[--thresh1 F]", |c, v| v.unit().map(|x| c.config.thresh1 = x)),
        Flag("[--thresh2 F]", |c, v| v.unit().map(|x| c.config.thresh2 = x)),
        // With no level to compare, RSTM counts nothing and every pair looks alike.
        Flag("[--level N]", |c, v| v.nonzero().map(|x| c.config.max_level = x)),
        Flag("[--explain]", |c, v| v.get().map(|x| c.explain = x)),
        Flag("[--json]", |c, v| v.get().map(|x| c.json = x)),
    ]],
    check: |c| need(!c.hidden.is_empty(), "classify needs exactly two HTML files"),
    command: Command::Classify,
};

static SIMULATE: Sub<Simulate> = Sub {
    name: "simulate",
    start: || Simulate { seed: 1, sites: 30 },
    lines: &[&[
        Flag("[--seed N]", |c, v| v.get().map(|x| c.seed = x)),
        Flag("[--sites N]", |c, v| v.get().map(|x| c.sites = x)),
    ]],
    check: |_| Ok(()),
    command: Command::Simulate,
};

static JAR: Sub<Jar> = Sub {
    name: "jar",
    start: Jar::default,
    lines: &[&[
        Flag("<jar.json>", |c, v| v.get().map(|x| c.path = x)),
        Flag("[--site HOST]", |c, v| v.get().map(|x| c.site = Some(x))),
        Flag("[--summary]", |c, v| v.get().map(|x| c.summary = x)),
    ]],
    check: |c| need(!c.path.is_empty(), "jar needs a file path"),
    command: Command::Jar,
};

static SERVE: Sub<ServeConfig> = Sub {
    name: "serve",
    // A well-known port, where the library binds any free one.
    start: || ServeConfig { port: 7070, ..ServeConfig::default() },
    lines: &[
        &[
            Flag("[--port N]", |c, v| v.get().map(|x| c.port = x)),
            Flag("[--seed N]", |c, v| v.get().map(|x| c.seed = x)),
            Flag("[--workers N]", |c, v| v.get().map(|x| c.workers = x)),
            Flag("[--shards N]", |c, v| v.get().map(|x| c.shards = x)),
            Flag("[--queue N]", |c, v| v.get().map(|x| c.queue_capacity = x)),
            // A zero timeout would spin the event loop and close every
            // connection before its request is read.
            Flag("[--timeout-ms N]", |c, v| {
                v.nonzero().map(|x| c.timeout = Duration::from_millis(x))
            }),
            Flag("[--chaos-rate F]", |c, v| v.unit().map(|x| c.chaos_fault_rate = x)),
        ],
        &[
            Flag("[--world table1|uniform:N]", |c, v| v.world().map(|x| c.world = x)),
            Flag("[--data-dir DIR]", |c, v| v.get().map(|x| c.data_dir = Some(x))),
            Flag("[--fsync always|batch|never]", |c, v| {
                v.pick(FsyncPolicy::parse).map(|x| c.fsync = x)
            }),
            Flag("[--snapshot-every N]", |c, v| v.get().map(|x| c.snapshot_every = x)),
        ],
        &[
            Flag("[--storage-fault-rate F]", |c, v| v.unit().map(|x| c.storage_fault_rate = x)),
            Flag("[--storage-fault-seed N]", |c, v| v.get().map(|x| c.storage_fault_seed = x)),
        ],
        &[
            Flag("[--repl-port N]", |c, v| v.get().map(|x| c.repl_port = Some(x))),
            Flag("[--repl-ack none|quorum|all]", |c, v| {
                v.pick(ReplAckPolicy::parse).map(|x| c.repl_ack = x)
            }),
            Flag("[--repl-follower ADDR]...", |c, v| v.get().map(|x| c.repl_followers.push(x))),
            Flag("[--repl-generation N]", |c, v| v.nonzero().map(|x| c.repl_generation = x)),
        ],
        &[Flag("[--repl-backlog N]", |c, v| {
            v.check(|n| *n > 0, "must be at least 1 record").map(|x| c.repl_backlog = x)
        })],
    ],
    check: |c| {
        let faults_without_data = c.data_dir.is_none() && c.storage_fault_rate > 0.0;
        need(!faults_without_data, "--storage-fault-rate needs --data-dir (nothing to fault)")
    },
    command: Command::Serve,
};

static ROUTE: Sub<RouterConfig> = Sub {
    name: "route",
    // A well-known port, where the library binds any free one.
    start: || RouterConfig { port: 7069, ..RouterConfig::default() },
    lines: &[
        &[
            Flag("--backend HTTP_ADDR,REPL_ADDR [--backend ...]...", |c, v| {
                BackendAddr::parse(v.text)
                    .map(|b| c.backends.push(b))
                    .map_err(context("invalid --backend"))
            }),
            Flag("[--port N]", |c, v| v.get().map(|x| c.port = x)),
            Flag("[--workers N]", |c, v| v.get().map(|x| c.workers = x)),
        ],
        &[
            Flag("[--heartbeat-ms N]", |c, v| {
                v.nonzero().map(|x| c.heartbeat = Duration::from_millis(x))
            }),
            Flag("[--miss-threshold N]", |c, v| v.nonzero().map(|x| c.miss_threshold = x)),
            Flag("[--ack none|quorum|all]", |c, v| v.pick(ReplAckPolicy::parse).map(|x| c.ack = x)),
        ],
    ],
    check: |c| {
        need(!c.backends.is_empty(), "route needs at least one --backend HTTP_ADDR,REPL_ADDR")
    },
    command: Command::Route,
};

static CHAOS_PROXY: Sub<ChaosProxy> = Sub {
    name: "chaos-proxy",
    start: || ChaosProxy {
        listen: "127.0.0.1:0".into(),
        target: String::new(),
        schedule: "open:0".into(),
        seed: 7,
    },
    lines: &[&[
        Flag("--target HOST:PORT", |c, v| v.get().map(|x| c.target = x)),
        Flag("[--listen HOST:PORT]", |c, v| v.get().map(|x| c.listen = x)),
        Flag("[--schedule PHASE:MS,...]", |c, v| v.get().map(|x| c.schedule = x)),
        Flag("[--seed N]", |c, v| v.get().map(|x| c.seed = x)),
    ]],
    check: |c| {
        need(!c.target.is_empty(), "chaos-proxy needs --target HOST:PORT")?;
        // Reject malformed schedules before binding anything.
        cp_serve::parse_schedule(&c.schedule).map(drop).map_err(context("invalid --schedule"))
    },
    command: Command::ChaosProxy,
};

static LOADGEN: Sub<Loadgen> = Sub {
    name: "loadgen",
    start: Loadgen::default,
    lines: &[
        &[
            Flag("--port N", |c, v| v.get().map(|x| c.config.port = x)),
            Flag("[--host H]", |c, v| v.get().map(|x| c.config.host = x)),
            Flag("[--threads N]", |c, v| v.get().map(|x| c.config.threads = x)),
            Flag("[--connections N]", |c, v| v.nonzero().map(|x| c.config.connections = x)),
            Flag("[--requests N]", |c, v| v.get().map(|x| c.config.requests = x)),
            Flag("[--seed N]", |c, v| v.get().map(|x| c.config.seed = x)),
            Flag("[--hosts N]", |c, v| v.nonzero().map(|x| c.config.hosts = Some(x))),
            Flag("[--zipf S]", |c, v| {
                v.check(|s: &f64| s.is_finite() && *s >= 0.0, "must be a finite exponent >= 0")
                    .map(|x| c.config.zipf = x)
            }),
        ],
        &[
            Flag("[--retries N]", |c, v| v.get().map(|x| c.config.retries = x)),
            Flag("[--backoff-ms N]", |c, v| {
                v.get().map(|x| c.config.backoff = Duration::from_millis(x))
            }),
            Flag("[--out FILE]", |c, v| v.get().map(|x| c.outputs.report = Some(x))),
            Flag("[--marks-out FILE]", |c, v| v.get().map(|x| c.outputs.marks = Some(x))),
        ],
    ],
    check: |c| need(c.config.port != 0, "loadgen needs --port pointing at a running server"),
    command: Command::Loadgen,
};

static CRAWL: Sub<Crawl> = Sub {
    name: "crawl",
    start: || Crawl { host: "127.0.0.1".into(), ..Crawl::default() },
    lines: &[
        &[
            Flag("[--world table1|uniform:N]", |c, v| v.world().map(|x| c.config.world = x)),
            Flag("[--seed N]", |c, v| v.get().map(|x| c.config.seed = x)),
            Flag("[--workers N]", |c, v| v.nonzero().map(|x| c.config.workers = x)),
            Flag("[--ticks N]", |c, v| v.get().map(|x| c.config.ticks = Some(x))),
            Flag("[--duration S]", |c, v| {
                v.get().map(|s| c.config.duration = Some(Duration::from_secs(s)))
            }),
            Flag("[--ttl S]", |c, v| {
                v.check(|s| *s > 0, "must be at least 1 second").map(|s: u64| {
                    c.config.ttl_ticks = Some((s.saturating_mul(1_000) / TICK_MILLIS).max(1))
                })
            }),
        ],
        &[
            Flag("[--retries N]", |c, v| v.get().map(|x| c.config.retry.max_retries = x)),
            Flag("[--backoff-ms N]", |c, v| {
                v.get().map(|x| c.config.retry.backoff = SimDuration::from_millis(x))
            }),
            Flag("[--port N]", |c, v| v.get().map(|x| c.port = x)),
            Flag("[--host H]", |c, v| v.get().map(|x| c.host = x)),
            Flag("[--max-hosts N]", |c, v| v.get().map(|x| c.config.max_hosts = Some(x))),
            Flag("[--extra-host H]...", |c, v| v.get().map(|x| c.config.extra_hosts.push(x))),
        ],
        &[
            Flag("[--out FILE]", |c, v| v.get().map(|x| c.outputs.report = Some(x))),
            Flag("[--marks-out FILE]", |c, v| v.get().map(|x| c.outputs.marks = Some(x))),
        ],
    ],
    check: |_| Ok(()),
    command: Command::Crawl,
};

static GET: Sub<Get> = Sub {
    name: "get",
    start: || Get { host: "127.0.0.1".into(), port: 0, post: false, path: String::new() },
    lines: &[&[
        Flag("--port N", |c, v| v.get().map(|x| c.port = x)),
        Flag("[--host H]", |c, v| v.get().map(|x| c.host = x)),
        Flag("[--post]", |c, v| v.get().map(|x| c.post = x)),
        Flag("PATH", |c, v| v.get().map(|x| c.path = x)),
    ]],
    check: |c| {
        need(c.port != 0, "get needs --port pointing at a running server")?;
        need(!c.path.is_empty(), "get needs a request path, e.g. /v1/marks")
    },
    command: Command::Get,
};

/// Every subcommand but `help`, in USAGE order.
static SUBCOMMANDS: [&dyn Spec; 9] =
    [&CLASSIFY, &SIMULATE, &JAR, &SERVE, &ROUTE, &CHAOS_PROXY, &LOADGEN, &CRAWL, &GET];

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
    if matches!(sub.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let spec = SUBCOMMANDS
        .iter()
        .find(|spec| spec.name() == sub)
        .ok_or_else(|| err(format!("unknown subcommand {sub:?}; try `cookiepicker help`")))?;
    spec.parse(&args[1..])
}

/// The usage text, rendered from the flag tables.
pub fn usage() -> String {
    let mut text = String::from(
        "cookiepicker — automatic cookie usage setting (DSN 2007 reproduction)\n\nUSAGE:\n",
    );
    for spec in SUBCOMMANDS {
        spec.usage(&mut text);
    }
    text.push_str("    cookiepicker help\n");
    text
}

/// Executes a parsed command, writing human output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] for I/O problems or malformed inputs.
pub fn run(command: Command, out: &mut impl Write) -> Result<(), CliError> {
    match command {
        Command::Help => write!(out, "{}", usage())?,
        Command::Classify(Classify { regular, hidden, config, explain: want_explain, json }) => {
            let reg_doc = parse_document(&read_file(&regular)?);
            let hid_doc = parse_document(&read_file(&hidden)?);
            let d = decide(&reg_doc, &hid_doc, &config);
            if json {
                // Exactly the serialization `/v1/classify` returns.
                writeln!(out, "{}", d.to_json().to_compact())?;
                return Ok(());
            }
            writeln!(out, "NTreeSim(A,B,{}) = {:.4}", config.max_level, d.tree_sim)?;
            writeln!(out, "NTextSim(S1,S2) = {:.4}", d.text_sim)?;
            let verdict = if d.cookies_caused_difference {
                "difference caused by cookies (USEFUL)"
            } else {
                "difference is page-dynamics noise (useless)"
            };
            writeln!(out, "verdict: {verdict}")?;
            if want_explain {
                let report = explain(&reg_doc, &hid_doc, &config);
                writeln!(out, "\nunmatched structure in regular version:")?;
                for p in &report.unmatched_regular {
                    writeln!(out, "  - {p}")?;
                }
                writeln!(out, "unmatched structure in hidden version:")?;
                for p in &report.unmatched_hidden {
                    writeln!(out, "  - {p}")?;
                }
                writeln!(out, "text contexts only in regular: {:?}", report.contexts_only_regular)?;
                writeln!(out, "text contexts only in hidden: {:?}", report.contexts_only_hidden)?;
            }
        }
        Command::Simulate(Simulate { seed, sites }) => {
            let mut population = cp_webworld::table1_population(seed);
            population.truncate(sites);
            let n = population.len();
            writeln!(out, "training CookiePicker on {n} synthetic sites (seed {seed})...")?;
            let (mut total, mut kept) = (0, 0);
            for spec in &population {
                let r = crate::simulate_site(spec, seed);
                let (domain, p, k) = (&spec.domain, r.persistent, r.marked_useful);
                writeln!(out, "  {domain:24} {p:2} persistent -> keep {k:2}, remove {:2}", p - k)?;
                total += p;
                kept += k;
            }
            let removable = total - kept;
            writeln!(out, "audit: {total} persistent cookies, {kept} kept, {removable} removable")?;
        }
        Command::Jar(Jar { path, site, summary }) => {
            let jar = CookieJar::from_json(&read_file(&path)?).map_err(context("invalid jar"))?;
            let now = SimTime::EPOCH;
            if summary {
                let a = cp_cookies::audit_jar(&jar, now);
                writeln!(
                    out,
                    "cookies: {} total, {} session, {} persistent",
                    a.total, a.session, a.persistent
                )?;
                writeln!(out, "useful: {}, removable tracking surface: {}", a.useful, a.removable)?;
                let share = 100.0 * a.year_plus_share();
                writeln!(out, "living >= 1 year: {} ({share:.1}%)", a.year_plus)?;
                for (label, count) in &a.lifetime_histogram {
                    writeln!(out, "  {label:12} {count}")?;
                }
                return Ok(());
            }
            for c in jar.iter().filter(|c| site.as_ref().is_none_or(|s| c.domain_matches(s))) {
                writeln!(
                    out,
                    "{:30} {:12} persistent={} useful={} expired={}",
                    c.domain,
                    c.name,
                    c.is_persistent(),
                    c.useful(),
                    c.is_expired(now)
                )?;
            }
        }
        Command::Serve(config) => {
            let ServeConfig { seed, world, workers, shards, repl_ack, fsync, .. } = config;
            let durable = config.data_dir.is_some();
            let mut server = cp_serve::start(config).map_err(context("cannot start"))?;
            writeln!(
                out,
                "cp-serve listening on http://{} (seed {seed}, world {world}, {workers} workers, {shards} shards)",
                server.addr()
            )?;
            if let Some(addr) = server.repl_addr() {
                writeln!(out, "cp-serve replication on {addr} (ack {})", repl_ack.label())?;
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
                )?;
            }
            // Flush so wrappers (bench scripts) can scrape the port before
            // the server exits.
            out.flush()?;
            server.wait();
            writeln!(out, "cp-serve: drained and stopped")?;
        }
        Command::Route(config) => {
            let (n, ack, heartbeat_ms) =
                (config.backends.len(), config.ack.label(), config.heartbeat.as_millis());
            let mut router = cp_serve::start_router(config).map_err(context("cannot start"))?;
            let addr = router.addr();
            writeln!(
                out,
                "cp-route listening on http://{addr} ({n} backends, ack {ack}, heartbeat {heartbeat_ms} ms)"
            )?;
            out.flush()?;
            router.wait();
            writeln!(out, "cp-route: drained and stopped")?;
        }
        Command::ChaosProxy(ChaosProxy { listen, target, schedule, seed }) => {
            let parsed =
                cp_serve::parse_schedule(&schedule).map_err(context("invalid --schedule"))?;
            let proxy = cp_serve::ChaosProxy::start(&listen, &target, seed)
                .map_err(context("cannot start"))?;
            let addr = proxy.addr();
            writeln!(out, "cp-chaos-proxy listening on {addr} -> {target} (seed {seed})")?;
            // Flush so wrappers (cluster.sh) can scrape the port before the
            // schedule runs to completion.
            out.flush()?;
            proxy.run_schedule(&parsed);
            writeln!(out, "cp-chaos-proxy: schedule complete")?;
        }
        Command::Get(Get { host, port, post, path }) => {
            let mut client = cp_serve::loadgen::Client::new(&host, port);
            let method = if post { "POST" } else { "GET" };
            let response = client
                .request(method, &path, b"")
                .map_err(|e| err(format!("{method} {path} failed: {e}")))?;
            if response.status >= 400 {
                return Err(err(format!("{method} {path} -> {}", response.status)));
            }
            write!(out, "{}", response.body_string())?;
        }
        Command::Loadgen(Loadgen { config, outputs }) => {
            let report = cp_serve::loadgen::run(&config).map_err(context("loadgen"))?;
            outputs.write(out, &report.to_json().to_pretty(), &report.marks)?;
        }
        Command::Crawl(Crawl { config, host, port, outputs }) => {
            let metrics = Arc::new(ServiceMetrics::new());
            let report = if port == 0 {
                // In-process: embed the world and store right here — the
                // crawl needs no server and no load generator.
                let picker = CookiePickerConfig::default();
                let store = ShardedStore::new(16, picker.stability_window);
                let world =
                    EmbeddedWorld::with_world(config.seed, config.world, DEFAULT_SITE_CACHE);
                let cache = AnalysisCache::new(512);
                let driver =
                    InProcessDriver::new(world, store, picker, cache, Arc::clone(&metrics));
                cp_crawl::crawl(&config, &driver, &metrics)
            } else {
                let driver = cp_crawl::HttpDriver::new(&host, port, &config.retry);
                cp_crawl::crawl(&config, &driver, &metrics)
            };
            outputs.write(out, &report.to_json().to_pretty(), &report.marks)?;
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
        let Command::Classify(Classify { regular, hidden, config, explain, json }) = cmd else {
            panic!()
        };
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
        assert!(parse_args(["classify", "a", "b", "c"]).is_err());
        assert!(parse_args(["classify", "a", "b", "--thresh1"]).is_err());
        assert!(parse_args(["classify", "a", "b", "--thresh1", "NaNope"]).is_err());
        assert!(parse_args(["classify", "a", "b", "--bogus"]).is_err());
        // The decision parameters stay in their domain: a NaN threshold reads
        // every pair as noise, one above 1 passes every tree test, and level
        // 0 leaves RSTM no node to count, so every pair looks alike.
        for (flag, value) in [
            ("--thresh1", "NaN"),
            ("--thresh1", "7"),
            ("--thresh1", "-0.1"),
            ("--thresh2", "NaN"),
            ("--thresh2", "1.5"),
            ("--level", "0"),
        ] {
            assert!(parse_args(["classify", "a", "b", flag, value]).is_err(), "{flag} {value}");
        }
        assert_eq!(
            parse_args(["classify", "a", "b", "--thresh1", "NaN"]).unwrap_err(),
            CliError("--thresh1 must be in [0, 1]".into())
        );
        assert_eq!(
            parse_args(["classify", "a", "b", "--level", "0"]).unwrap_err(),
            CliError("--level must be at least 1".into())
        );
        for (flag, value) in [("--thresh1", "0"), ("--thresh2", "1"), ("--level", "1")] {
            assert!(parse_args(["classify", "a", "b", flag, value]).is_ok(), "{flag} {value}");
        }
    }

    #[test]
    fn parse_simulate_and_jar() {
        assert_eq!(
            parse_args(["simulate", "--seed", "9", "--sites", "5"]).unwrap(),
            Command::Simulate(Simulate { seed: 9, sites: 5 })
        );
        assert_eq!(
            parse_args(["jar", "cookies.json", "--site", "a.example"]).unwrap(),
            Command::Jar(Jar {
                path: "cookies.json".into(),
                site: Some("a.example".into()),
                summary: false
            })
        );
        assert!(matches!(
            parse_args(["jar", "cookies.json", "--summary"]).unwrap(),
            Command::Jar(Jar { summary: true, .. })
        ));
        assert!(parse_args(["jar"]).is_err());
        assert_eq!(
            parse_args(["jar", "x.json", "y.json"]).unwrap_err(),
            CliError("unexpected operand \"y.json\"".into()),
            "a second path must not replace the first"
        );
        assert!(parse_args(["frobnicate"]).is_err());
    }

    #[test]
    fn parse_serve_and_loadgen() {
        assert_eq!(
            parse_args(["serve", "--port", "0", "--seed", "7", "--workers", "2"]).unwrap(),
            Command::Serve(ServeConfig {
                port: 0,
                seed: 7,
                workers: 2,
                shards: 16,
                queue_capacity: 128,
                timeout: Duration::from_millis(5_000),
                chaos_fault_rate: 0.0,
                data_dir: None,
                fsync: FsyncPolicy::Batch,
                snapshot_every: cp_serve::store::DEFAULT_SNAPSHOT_EVERY,
                storage_fault_rate: 0.0,
                storage_fault_seed: 0,
                world: WorldKind::Table1,
                repl_port: None,
                repl_ack: ReplAckPolicy::Quorum,
                repl_followers: vec![],
                repl_generation: 1,
                repl_backlog: cp_serve::replication::DEFAULT_BACKLOG_CAP,
                ..ServeConfig::default()
            })
        );
        assert!(matches!(
            parse_args(["serve", "--chaos-rate", "0.1"]).unwrap(),
            Command::Serve(ServeConfig { port: 7070, chaos_fault_rate, .. }) if chaos_fault_rate == 0.1
        ));
        assert!(matches!(
            parse_args(["serve", "--timeout-ms", "1"]).unwrap(),
            Command::Serve(ServeConfig { timeout, .. }) if timeout == Duration::from_millis(1)
        ));
        assert_eq!(
            parse_args(["serve", "--timeout-ms", "0"]),
            Err(err("--timeout-ms must be at least 1")),
            "a zero timeout would close every connection before its request is read"
        );
        assert_eq!(
            parse_args(["loadgen", "--port", "7070", "--requests", "500", "--out", "r.json"])
                .unwrap(),
            Command::Loadgen(Loadgen {
                config: LoadgenConfig {
                    host: "127.0.0.1".into(),
                    port: 7070,
                    threads: 4,
                    connections: 1,
                    requests: 500,
                    seed: 7,
                    hosts: None,
                    zipf: 1.0,
                    retries: 1,
                    backoff: Duration::from_millis(5),
                },
                outputs: Outputs { report: Some("r.json".into()), marks: None },
            })
        );
        assert!(matches!(
            parse_args(["loadgen", "--port", "7070", "--marks-out", "marks.txt"]).unwrap(),
            Command::Loadgen(Loadgen { outputs: Outputs { marks: Some(ref p), .. }, .. })
                if p == "marks.txt"
        ));
        assert!(matches!(
            parse_args(["loadgen", "--port", "7070", "--retries", "3", "--backoff-ms", "20"])
                .unwrap(),
            Command::Loadgen(Loadgen { config: LoadgenConfig { retries: 3, backoff, .. }, .. })
                if backoff == Duration::from_millis(20)
        ));
        assert!(matches!(
            parse_args(["loadgen", "--port", "7070", "--connections", "8"]).unwrap(),
            Command::Loadgen(Loadgen { config: LoadgenConfig { connections: 8, .. }, .. })
        ));
        assert!(
            parse_args(["loadgen", "--port", "7070", "--connections", "0"]).is_err(),
            "connections must be at least 1"
        );
        assert!(parse_args(["serve", "--bogus"]).is_err());
        assert!(parse_args(["serve", "--chaos-rate", "1.5"]).is_err(), "rate must be in [0, 1]");
        assert!(parse_args(["loadgen", "--threads", "2"]).is_err(), "loadgen requires --port");
    }

    /// What the library's defaults do not say: the CLI's well-known ports
    /// for `serve` and `route`, and `crawl`'s in-process default.
    #[test]
    fn bare_subcommands_parse_to_the_library_defaults() {
        assert_eq!(
            parse_args(["serve"]).unwrap(),
            Command::Serve(ServeConfig { port: 7070, ..ServeConfig::default() })
        );
        let backend = BackendAddr::parse("127.0.0.1:7070,127.0.0.1:7170").unwrap();
        assert_eq!(
            parse_args(["route", "--backend", "127.0.0.1:7070,127.0.0.1:7170"]).unwrap(),
            Command::Route(RouterConfig {
                port: 7069,
                backends: vec![backend],
                ..RouterConfig::default()
            })
        );
        assert_eq!(
            parse_args(["loadgen", "--port", "7070"]).unwrap(),
            Command::Loadgen(Loadgen {
                config: LoadgenConfig { port: 7070, ..LoadgenConfig::default() },
                outputs: Outputs::default(),
            })
        );
        assert_eq!(
            parse_args(["crawl"]).unwrap(),
            Command::Crawl(Crawl {
                config: CrawlConfig::default(),
                host: "127.0.0.1".into(),
                port: 0,
                outputs: Outputs::default(),
            })
        );
    }

    #[test]
    fn parse_world_and_zipf_flags() {
        assert!(matches!(
            parse_args(["serve", "--world", "uniform:1000000"]).unwrap(),
            Command::Serve(ServeConfig { world: WorldKind::Uniform(1_000_000), .. })
        ));
        assert!(matches!(
            parse_args(["serve", "--world", "table1"]).unwrap(),
            Command::Serve(ServeConfig { world: WorldKind::Table1, .. })
        ));
        assert!(parse_args(["serve", "--world", "uniform:0"]).is_err(), "empty world");
        assert!(parse_args(["serve", "--world", "galaxy"]).is_err(), "unknown kind");
        assert!(matches!(
            parse_args(["loadgen", "--port", "1", "--hosts", "1000000", "--zipf", "1.1"]).unwrap(),
            Command::Loadgen(Loadgen {
                config: LoadgenConfig { hosts: Some(1_000_000), zipf, .. },
                ..
            }) if zipf == 1.1
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
        let Command::Serve(ServeConfig {
            data_dir,
            fsync,
            snapshot_every,
            storage_fault_rate,
            storage_fault_seed,
            ..
        }) = cmd
        else {
            panic!("expected serve")
        };
        assert_eq!(data_dir.as_deref(), Some(std::path::Path::new("/tmp/cp-data")));
        assert_eq!(fsync, FsyncPolicy::Always);
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
            Command::Get(Get {
                host: "127.0.0.1".into(),
                port: 7070,
                post: false,
                path: "/v1/marks".into()
            })
        );
        assert!(matches!(
            parse_args(["get", "--port", "7070", "--post", "/v1/shutdown"]).unwrap(),
            Command::Get(Get { post: true, .. })
        ));
        assert!(parse_args(["get", "/v1/marks"]).is_err(), "get requires --port");
        assert!(parse_args(["get", "--port", "7070"]).is_err(), "get requires a path");
        assert_eq!(
            parse_args(["get", "--port", "1", "/a", "/b"]).unwrap_err(),
            CliError("unexpected operand \"/b\"".into()),
            "a second path must not replace the first"
        );
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
            Command::Crawl(Crawl {
                config: CrawlConfig {
                    world: WorldKind::Uniform(1_000),
                    seed: 9,
                    workers: 8,
                    ticks: None,
                    duration: None,
                    ttl_ticks: Some(30 * 1_000 / TICK_MILLIS),
                    retry: cookiepicker_core::RetryPolicy {
                        max_retries: 5,
                        backoff: SimDuration::from_millis(100),
                        ..cookiepicker_core::RetryPolicy::default()
                    },
                    max_hosts: Some(500),
                    extra_hosts: vec!["stale1.example".into(), "stale2.example".into()],
                    ..CrawlConfig::default()
                },
                host: "127.0.0.1".into(),
                port: 0,
                outputs: Outputs { report: Some("crawl.json".into()), marks: None },
            })
        );
        // Defaults: in-process, the core retry policy's budget and backoff.
        let defaults = cookiepicker_core::RetryPolicy::default();
        assert!(matches!(
            parse_args(["crawl"]).unwrap(),
            Command::Crawl(Crawl {
                port: 0,
                config: CrawlConfig { world: WorldKind::Table1, retry, .. },
                ..
            }) if retry.max_retries == defaults.max_retries && retry.backoff == defaults.backoff
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
        let Command::Serve(ServeConfig {
            repl_port,
            repl_ack,
            repl_followers,
            repl_generation,
            ..
        }) = cmd
        else {
            panic!("expected serve")
        };
        assert_eq!(repl_port, Some(7171));
        assert_eq!(repl_ack, ReplAckPolicy::All);
        assert_eq!(repl_followers, vec!["127.0.0.1:7271".to_string(), "127.0.0.1:7272".into()]);
        assert_eq!(repl_generation, 3);
        assert!(parse_args(["serve", "--repl-ack", "most"]).is_err(), "unknown policy");
        assert!(parse_args(["serve", "--repl-generation", "0"]).is_err(), "generations start at 1");
        assert!(matches!(
            parse_args(["serve", "--repl-backlog", "64"]).unwrap(),
            Command::Serve(ServeConfig { repl_backlog: 64, .. })
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
            Command::ChaosProxy(ChaosProxy {
                listen: "127.0.0.1:7555".into(),
                target: "127.0.0.1:7170".into(),
                schedule: "open:500,cut:1000,open:0".into(),
                seed: 9,
            })
        );
        // Defaults: any free port, hold open forever.
        assert!(matches!(
            parse_args(["chaos-proxy", "--target", "127.0.0.1:1"]).unwrap(),
            Command::ChaosProxy(ChaosProxy { ref listen, ref schedule, seed: 7, .. })
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
            Command::Route(RouterConfig {
                port: 7069,
                backends: vec![
                    BackendAddr::parse("127.0.0.1:7070,127.0.0.1:7170").unwrap(),
                    BackendAddr::parse("127.0.0.1:7071,127.0.0.1:7171").unwrap(),
                ],
                workers: 2,
                heartbeat: Duration::from_millis(100),
                miss_threshold: 5,
                ack: ReplAckPolicy::None,
                ..RouterConfig::default()
            })
        );
        // Defaults mirror RouterConfig's.
        let defaults = RouterConfig::default();
        assert!(matches!(
            parse_args(["route", "--backend", "127.0.0.1:1,127.0.0.1:2"]).unwrap(),
            Command::Route(RouterConfig { port: 7069, workers: 4, heartbeat, miss_threshold, ack, .. })
                if heartbeat == defaults.heartbeat
                    && miss_threshold == defaults.miss_threshold
                    && ack == ReplAckPolicy::Quorum
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
        let usage = usage();
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
                usage.lines().any(|l| l.trim_start().starts_with(&format!("cookiepicker {sub}"))),
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
