//! `perfbench`: one run of one workload against the release
//! `cookiepicker` binary.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --bin PATH
//!           [--commit C] [--source-digest D] [--work-dir DIR]
//! ```
//!
//! A run sets the servers up several times (timing each from spawn to the
//! first 200 `/healthz` at the entry point, keeping the last), drives
//! alternating open-loop and closed-loop segments from two client
//! threads, times loopback round trips between segments to scale the
//! end-to-end timings to a reference machine speed, checks the outputs,
//! samples `/proc`, restarts the primary to time recovery, and prints
//! every end-to-end metric. With `--trace 1` it
//! also replays the workload's request sequence in-process and prints the
//! per-layer metrics instead. The last stdout line is the JSON result;
//! `perfbench/README.md` defines every metric.

mod client;
mod procs;
mod replay;
mod speed;
mod stats;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cp_runtime::json::Json;
use cp_serve::metrics::{quantile_from_buckets, scrape_histogram};

use client::{Conn, Jar, Tally, Windows, ROUTES};
use procs::Server;
use stats::Timing;
use trace::Tracer;
use workload::{Req, Route, Stream, Topology, Workload, WORLD_SEED};

/// Client threads, each with one keep-alive connection: at most `nproc`
/// on the 2-core machines this benchmark is sized for.
const MAX_CLIENT_THREADS: usize = 2;
/// Set-ups per run; the median is reported and the last one serves.
const SETUP_REPS: usize = 21;
/// Recovery restarts per run; the median is reported.
const RECOVER_REPS: usize = 21;
/// Share of `--seconds` spent warming up, in the open loop, and in the
/// closed loop.
const WARMUP_SHARE: f64 = 0.1;
const OPEN_SHARE: f64 = 0.5;
const CLOSED_SHARE: f64 = 0.4;
/// Open/closed alternations after the warm-up: enough that both loops,
/// and the speed samples taken before each segment, see the machine at
/// the same moments of the run.
const CYCLES: usize = 10;
/// Visits per open-loop latency window. Percentiles are taken per window
/// and the median over all windows is reported, so a few-millisecond
/// stall of the machine moves a handful of windows, not the result.
const WINDOW_VISITS: f64 = 2_000.0;
/// Closed-loop throughput window; the median window rate is reported.
const CLOSED_WINDOW_S: f64 = 0.2;
/// Requests each connection sends alone before the concurrent load.
const SERIAL_REQUESTS: usize = 64;
/// How long in-flight open-loop requests may take to drain.
const DRAIN: Duration = Duration::from_secs(5);
/// Summary reads sent both through the router and directly, for the hop.
const HOP_SAMPLES: usize = 2_000;
/// Startup budget for any server process.
const START_TIMEOUT: Duration = Duration::from_secs(60);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: PathBuf,
    commit: String,
    source_digest: String,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else { return Err(format!("unexpected {flag}")) };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let need = |name: &str| flags.get(name).cloned().ok_or_else(|| format!("missing --{name}"));
    let name = need("workload")?;
    let workload = workload::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = need("seed")?.parse().map_err(|_| "--seed must be an integer".to_string())?;
    let seconds: f64 = need("seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match need("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bin: PathBuf::from(need("bin")?),
        commit: flags.get("commit").cloned().unwrap_or_else(|| "unknown".into()),
        source_digest: flags.get("source-digest").cloned().unwrap_or_else(|| "unknown".into()),
        work_dir: PathBuf::from(
            flags.get("work-dir").cloned().unwrap_or_else(|| ".perfbench-run".into()),
        ),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = match procs::run_dir(&args.work_dir, &format!("{}-{}", args.workload.name, args.seed))
    {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&args.work_dir);
    match result {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The processes serving one workload.
struct Deployment {
    /// Nodes; `nodes[0]` is the primary (or the only node).
    nodes: Vec<Server>,
    router: Option<Server>,
    /// The primary's data directory (cluster only).
    primary_data: Option<PathBuf>,
}

impl Deployment {
    fn entry_port(&self) -> u16 {
        self.router.as_ref().unwrap_or(&self.nodes[0]).port
    }

    fn servers(&self) -> impl Iterator<Item = &Server> {
        self.nodes.iter().chain(self.router.iter())
    }

    fn cpu_ticks(&self) -> u64 {
        self.servers().map(Server::cpu_ticks).sum()
    }

    fn flags(&self) -> Vec<Vec<String>> {
        self.servers().map(|s| s.args.clone()).collect()
    }
}

fn node_args(workload: &Workload, data_dir: Option<&Path>, replicate: bool) -> Vec<String> {
    let mut args: Vec<String> =
        ["serve", "--port", "0", "--seed"].iter().map(|s| s.to_string()).collect();
    args.push(WORLD_SEED.to_string());
    if let Some(world) = workload.world {
        args.extend(["--world".to_string(), world.to_string()]);
    }
    if replicate {
        args.extend(["--repl-port", "0", "--repl-ack", "quorum"].iter().map(|s| s.to_string()));
    }
    if let Some(dir) = data_dir {
        args.extend([
            "--data-dir".to_string(),
            dir.display().to_string(),
            "--fsync".to_string(),
            "batch".to_string(),
        ]);
    }
    args
}

/// Starts the workload's processes; returns them with the set-up time.
fn deploy(args: &Args, dir: &Path) -> Result<(Deployment, f64), String> {
    let wl = &args.workload;
    let started = Instant::now();
    let deployment = match wl.topology {
        Topology::Single => {
            let node = Server::spawn(
                &args.bin,
                "node",
                node_args(wl, None, false),
                &dir.join("node.log"),
            )?;
            Deployment { nodes: vec![node], router: None, primary_data: None }
        }
        Topology::Cluster => {
            let mut nodes = Vec::new();
            for i in 0..3 {
                let name = format!("node{i}");
                let node_args = node_args(wl, Some(&dir.join(format!("{name}-data"))), true);
                nodes.push(Server::spawn(
                    &args.bin,
                    &name,
                    node_args,
                    &dir.join(format!("{name}.log")),
                )?);
            }
            let mut route: Vec<String> =
                ["route", "--port", "0", "--ack", "quorum"].iter().map(|s| s.to_string()).collect();
            for node in &nodes {
                let repl = node.repl_port.ok_or("node without a replication port")?;
                route.push("--backend".into());
                route.push(format!("127.0.0.1:{},127.0.0.1:{repl}", node.port));
            }
            let router = Server::spawn(&args.bin, "router", route, &dir.join("router.log"))?;
            Deployment { nodes, router: Some(router), primary_data: Some(dir.join("node0-data")) }
        }
    };
    procs::await_healthy(deployment.entry_port(), START_TIMEOUT)?;
    Ok((deployment, started.elapsed().as_secs_f64()))
}

/// One stretch of open-loop sends.
struct Segment {
    reqs: Vec<Req>,
    /// Send offsets from the segment's start, ns.
    due: Vec<u64>,
    /// The segment's start on the thread's whole arrival schedule, ns.
    start: u64,
}

/// Each client thread's open-loop plan: a warm-up segment, then one
/// measured segment per cycle, all cut from one seeded arrival schedule;
/// closed-loop segments continue drawing from `stream`.
struct ThreadPlan {
    stream: Stream,
    warm: Segment,
    open: Vec<Segment>,
}

fn plan_threads(args: &Args, threads: usize) -> Vec<ThreadPlan> {
    let rate = args.workload.offered_rps / threads as f64;
    let n_warm = (rate * args.seconds * WARMUP_SHARE).ceil() as usize;
    let n_seg = (rate * args.seconds * OPEN_SHARE / CYCLES as f64).ceil() as usize;
    (0..threads)
        .map(|t| {
            let mut stream = Stream::new(&args.workload, args.seed, t);
            let due = workload::arrivals(args.seed, t, rate, n_warm + CYCLES * n_seg);
            let mut cut = |from: usize, n: usize| {
                let start = if from == 0 { 0 } else { due[from - 1] };
                let due = due[from..from + n].iter().map(|d| d - start).collect();
                Segment { reqs: stream.take(n), due, start }
            };
            let warm = cut(0, n_warm);
            let open = (0..CYCLES).map(|c| cut(n_warm + c * n_seg, n_seg)).collect();
            ThreadPlan { stream, warm, open }
        })
        .collect()
}

/// The workload's send order: every thread's open-loop requests merged by
/// intended send time.
fn send_order(plans: &[ThreadPlan], limit: usize) -> Vec<(usize, Req)> {
    let mut all: Vec<(u64, usize, &Req)> = Vec::new();
    for (t, plan) in plans.iter().enumerate() {
        for segment in std::iter::once(&plan.warm).chain(&plan.open) {
            all.extend(
                segment.due.iter().zip(&segment.reqs).map(|(d, r)| (segment.start + d, t, r)),
            );
        }
    }
    all.sort_by_key(|(due, t, _)| (*due, *t));
    all.into_iter().take(limit).map(|(_, t, r)| (t, r.clone())).collect()
}

/// Scraped server-side figures.
#[derive(Default)]
struct Scrape {
    useful: u64,
    noise: u64,
    request_buckets: BTreeMap<Route, Vec<(u64, u64)>>,
    requests: u64,
    wakeups: u64,
    wal_records: u64,
    wal_fsyncs: u64,
    snapshots: u64,
    repl_ack_p50_us: f64,
    repl_slow_demotions: u64,
    router_read_failover: u64,
}

fn scrape(dep: &Deployment) -> Result<Scrape, String> {
    let mut s = Scrape::default();
    for (i, node) in dep.nodes.iter().enumerate() {
        let text = node.get("/metrics")?;
        s.useful += procs::counter(&text, "cp_decisions_total{verdict=\"useful\"}");
        s.noise += procs::counter(&text, "cp_decisions_total{verdict=\"noise\"}");
        for route in ROUTES {
            let label = format!("route=\"{}\"", route.label());
            let buckets = procs::labeled_buckets(&text, "cp_request_micros", &label);
            s.requests += buckets.last().map_or(0, |b| b.1);
            procs::merge_buckets(s.request_buckets.entry(route).or_default(), &buckets);
        }
        s.wakeups += procs::counter(&text, "cp_event_loop_wakeups_total");
        s.wal_records += procs::counter(&text, "cp_wal_records_total");
        s.wal_fsyncs += procs::counter(&text, "cp_wal_fsync_micros_count");
        s.snapshots += procs::counter(&text, "cp_snapshot_total{result=\"ok\"}");
        if i == 0 {
            s.repl_ack_p50_us =
                quantile_from_buckets(&scrape_histogram(&text, "cp_repl_ack_micros"), 0.5);
            s.repl_slow_demotions = procs::counter(&text, "cp_repl_slow_demotions_total");
        }
    }
    if let Some(router) = &dep.router {
        let text = router.get("/metrics")?;
        s.router_read_failover = procs::counter(&text, "cp_route_read_failover_total");
    }
    Ok(s)
}

impl Scrape {
    fn route_p50(&self, route: Route) -> f64 {
        self.request_buckets.get(&route).map_or(0.0, |b| quantile_from_buckets(b, 0.5))
    }
}

/// Every acked mark that `/v1/marks` on `port` does not list.
fn missing_marks(port: u16, marks: &[String]) -> Result<Vec<String>, String> {
    let body = procs::get(port, "/v1/marks")?;
    let present: HashSet<&str> = body.lines().collect();
    Ok(marks.iter().filter(|m| !present.contains(m.as_str())).cloned().collect())
}

/// p50 of the router hop: the same summary reads sent through the router
/// and straight to the primary, alternating which goes first.
fn router_hop_us(dep: &Deployment, hosts: &[String]) -> Result<f64, String> {
    let Some(router) = &dep.router else { return Ok(0.0) };
    let mut via =
        cp_serve::loadgen::Client::with_policy("127.0.0.1", router.port, 0, Duration::ZERO);
    let mut direct =
        cp_serve::loadgen::Client::with_policy("127.0.0.1", dep.nodes[0].port, 0, Duration::ZERO);
    let (mut through, mut straight) = (Vec::new(), Vec::new());
    for (i, host) in hosts.iter().cycle().take(HOP_SAMPLES).enumerate() {
        let target = format!("/v1/sites/{host}");
        let time = |client: &mut cp_serve::loadgen::Client| -> Result<u64, String> {
            let started = Instant::now();
            client.request("GET", &target, b"").map_err(|e| format!("hop sample: {e}"))?;
            Ok(started.elapsed().as_nanos() as u64)
        };
        if i % 2 == 0 {
            through.push(time(&mut via)?);
            straight.push(time(&mut direct)?);
        } else {
            straight.push(time(&mut direct)?);
            through.push(time(&mut via)?);
        }
    }
    let p50 = |v: &mut Vec<u64>| Timing::of(v).p50 as f64 / 1_000.0;
    Ok(p50(&mut through) - p50(&mut straight))
}

/// What the recovery restarts measured.
struct Recovery {
    seconds: Vec<f64>,
    records_replayed: u64,
    us_per_record: f64,
    missing_after: Vec<String>,
}

/// The primary's data directory as copied at a fixed point of the run —
/// after the warm-up and first open-loop segment, nothing in flight — and
/// the marks acked by then. Recovery restarts from this copy, so the
/// records it replays are the same for a seed however fast the
/// closed-loop segments ran.
struct Frozen {
    dir: PathBuf,
    marks: Vec<String>,
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("{}: {e}", target.display()))?;
        }
    }
    Ok(())
}

/// Restarts the primary alone — on the frozen copy of its data directory
/// when it has one — timing spawn → first 200. Every server process must
/// already be gone.
fn recover(args: &Args, dir: &Path, frozen: Option<&Frozen>) -> Result<Recovery, String> {
    let restart_args = node_args(&args.workload, frozen.map(|f| f.dir.as_path()), false);
    let mut out = Recovery {
        seconds: Vec::new(),
        records_replayed: 0,
        us_per_record: 0.0,
        missing_after: Vec::new(),
    };
    for rep in 0..RECOVER_REPS {
        let started = Instant::now();
        let node = Server::spawn(
            &args.bin,
            "restart",
            restart_args.clone(),
            &dir.join(format!("restart{rep}.log")),
        )?;
        procs::await_healthy(node.port, START_TIMEOUT)?;
        out.seconds.push(started.elapsed().as_secs_f64());
        if let (0, Some(frozen)) = (rep, frozen) {
            out.missing_after = missing_marks(node.port, &frozen.marks)?;
            let health = Json::parse(&node.get("/healthz")?).map_err(|e| e.to_string())?;
            let recovery = health.get("recovery");
            let field =
                |k: &str| recovery.and_then(|r| r.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
            out.records_replayed = field("records_replayed") as u64;
            if out.records_replayed > 0 {
                out.us_per_record = field("recovery_ms") * 1_000.0 / out.records_replayed as f64;
            }
        }
        node.kill();
    }
    Ok(out)
}

/// One metric in the result.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

impl Report {
    fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        let mut metrics = Json::object();
        for m in &self.metrics {
            metrics = metrics
                .set(m.name.clone(), Json::object().set("value", m.value).set("unit", m.unit));
        }
        let result = Json::object()
            .set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        println!("{}", result.to_compact());
    }
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let wl = &args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.clamp(1, MAX_CLIENT_THREADS);
    let tick_us = 1e6 / procs::clock_ticks_per_second();
    let mut failures: Vec<String> = Vec::new();

    // Set-up, several times, each after the previous one's processes and
    // files are gone and flushed, so every set-up starts from the same
    // disk state (left in place, each cluster set-up's 48 new WAL files
    // made the next one's fsyncs slower: 10 ms grew to 40 ms over 21);
    // the last deployment serves the load.
    let mut setups = Vec::new();
    let mut deployment = None;
    for rep in 0..SETUP_REPS {
        if deployment.take().is_some() {
            let _ = std::fs::remove_dir_all(dir.join(format!("setup{}", rep - 1)));
        }
        procs::sync_disks();
        let rep_dir = dir.join(format!("setup{rep}"));
        std::fs::create_dir_all(&rep_dir).map_err(|e| e.to_string())?;
        let (dep, seconds) = deploy(args, &rep_dir)?;
        setups.push(seconds);
        deployment = Some(dep);
    }
    let dep: Deployment = deployment.expect("at least one set-up");
    let port = dep.entry_port();

    // Warm-up, then CYCLES × (open-loop segment at the offered rate,
    // closed-loop segment at saturation), so both loops sample the whole
    // run rather than one half of it each.
    let mut plans = plan_threads(args, threads);
    let mut clients: Vec<(Jar, Conn)> = (0..threads)
        .map(|_| Conn::open(port).map(|conn| (Jar::default(), conn)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("client connect: {e}"))?;
    // Each connection first sends a few requests alone, one connection
    // after the other (see `client::serial`), then the warm-up.
    let mut serial = Tally::default();
    for (plan, (jar, conn)) in plans.iter_mut().zip(clients.iter_mut()) {
        serial.merge(client::serial(conn, &mut plan.stream, jar, SERIAL_REQUESTS));
    }
    let serial_sent = serial.sent;
    let mut all = run_threads(&mut plans, &mut clients, |plan, (jar, conn)| {
        client::open_loop(conn, &plan.warm.reqs, &plan.warm.due, None, jar, DRAIN)
    });
    all.merge(serial);
    // Latency windows hold about WINDOW_VISITS visits whatever the rate, so
    // every window's p99 has twenty samples beyond it; throughput windows
    // are CLOSED_WINDOW_S long.
    let open_seg_s = args.seconds * OPEN_SHARE / CYCLES as f64;
    let closed_seg_s = args.seconds * CLOSED_SHARE / CYCLES as f64;
    let open_windows = ((open_seg_s * wl.offered_rps * 0.86 / WINDOW_VISITS).round() as u32).max(1);
    let closed_windows = ((closed_seg_s / CLOSED_WINDOW_S).round() as u32).max(1);
    let windows = |seg_s: f64, per_cycle: u32, cycle: usize| Windows {
        base: cycle as u32 * per_cycle,
        count: per_cycle,
        span_ns: (seg_s / per_cycle as f64 * 1e9) as u64,
    };
    let (mut open, mut closed) = (Tally::default(), Tally::default());
    let (mut cpu_per_req, mut gen_cpu_per_req) = (Vec::new(), Vec::new());
    let mut open_wall = 0.0;
    let mut frozen: Option<Frozen> = None;
    let mut gauge = speed::Gauge::start().map_err(|e| format!("speed gauge: {e}"))?;
    // Per segment: the speed sample taken just before it and the host's
    // steal during it, for `speed::slowdown` and `stats::quieter_half`.
    let (mut open_speed, mut closed_speed) = (Vec::new(), Vec::new());
    let (mut open_steal, mut closed_steal) = (Vec::new(), Vec::new());
    for cycle in 0..CYCLES {
        open_speed.push(gauge.sample().map_err(|e| format!("speed gauge: {e}"))?);
        let bins = windows(open_seg_s, open_windows, cycle);
        let (cpu0, self0, t0) = (dep.cpu_ticks(), procs::self_cpu_ticks(), Instant::now());
        let steal0 = procs::steal_ticks();
        let segment = run_threads(&mut plans, &mut clients, |plan, (jar, conn)| {
            let seg = &plan.open[cycle];
            client::open_loop(conn, &seg.reqs, &seg.due, Some(bins), jar, DRAIN)
        });
        open_steal.push(procs::steal_ticks().saturating_sub(steal0));
        open_wall += t0.elapsed().as_secs_f64();
        let (cpu1, self1) = (dep.cpu_ticks(), procs::self_cpu_ticks());
        let answered = segment.answered.max(1) as f64;
        cpu_per_req.push((cpu1 - cpu0) as f64 * tick_us / answered);
        gen_cpu_per_req.push((self1 - self0) as f64 * tick_us / answered);
        open.merge(segment);
        if let (0, Some(data)) = (cycle, &dep.primary_data) {
            let copy = dir.join("frozen-primary");
            copy_dir(data, &copy)?;
            let mut marks: Vec<String> = all.marks.iter().chain(&open.marks).cloned().collect();
            marks.sort_unstable();
            marks.dedup();
            frozen = Some(Frozen { dir: copy, marks });
        }
        closed_speed.push(gauge.sample().map_err(|e| format!("speed gauge: {e}"))?);
        let bins = windows(closed_seg_s, closed_windows, cycle);
        let steal0 = procs::steal_ticks();
        closed.merge(run_threads(&mut plans, &mut clients, |plan, (jar, conn)| {
            client::closed_loop(conn, &mut plan.stream, jar, bins)
        }));
        closed_steal.push(procs::steal_ticks().saturating_sub(steal0));
    }
    drop((clients, gauge));
    let speed_samples: Vec<u64> = open_speed.iter().chain(&closed_speed).copied().collect();
    let slowdown = speed::slowdown(&speed_samples);
    // The end-to-end figures come from the quieter half of each loop's
    // segments: a host that takes the CPUs away for part of a run (steal)
    // queues the open loop up and halves the closed loop, whatever the
    // program does.
    let quiet_open = stats::quieter_half(&open_steal, &open_speed);
    let quiet_closed = stats::quieter_half(&closed_steal, &closed_speed);
    let quiet = |keep: &[bool], per_cycle: u32, slot: u32| keep[(slot / per_cycle) as usize];
    let quiet_cpu: Vec<f64> =
        cpu_per_req.iter().zip(&quiet_open).filter(|(_, &q)| q).map(|(&c, _)| c).collect();
    let cpu_us_per_req = stats::median(&quiet_cpu);
    let gen_cpu_us_per_req = stats::median(&gen_cpu_per_req);
    let window_s = closed_seg_s / closed_windows as f64;
    let window_rps: Vec<f64> = closed.windows.iter().map(|&n| n as f64 / window_s).collect();
    let quiet_rps: Vec<f64> = (0..window_rps.len() as u32)
        .filter(|&slot| quiet(&quiet_closed, closed_windows, slot))
        .map(|slot| window_rps[slot as usize])
        .collect();
    let throughput_rps = stats::median(&quiet_rps);
    let windowed = |route: usize, pct: f64| {
        let samples: Vec<(u32, u64)> = open.latency[route]
            .iter()
            .filter(|&&(slot, _)| quiet(&quiet_open, open_windows, slot))
            .copied()
            .collect();
        stats::windowed(&samples, pct)
    };
    let (visit_p50, visit_p90, visit_p99) =
        (windowed(0, 50.0), windowed(0, 90.0), windowed(0, 99.0));
    let (read_p50, classify_p50) = (windowed(2, 50.0), windowed(3, 50.0));
    let open_latency: Vec<Timing> = open
        .latency
        .iter()
        .map(|samples| Timing::of(&mut samples.iter().map(|&(_, us)| us).collect::<Vec<_>>()))
        .collect();
    let lateness = Timing::of(&mut open.lateness.clone());
    let open_attempted: u64 = plans
        .iter()
        .flat_map(|p| std::iter::once(&p.warm).chain(&p.open))
        .map(|s| s.reqs.len() as u64)
        .sum();
    let attempted = serial_sent + open_attempted + closed.sent;
    all.merge(open);
    all.merge(closed);

    // Correctness: statuses, verdict tally vs the nodes' counters, marks.
    let failed = all.failed();
    if failed > 0 {
        failures.push(format!(
            "{} failed requests: {} 5xx, {} unexpected status, {} transport, {} unanswered",
            failed, all.status_5xx, all.unexpected, all.transport_errors, all.unanswered
        ));
    }
    let scraped = scrape(&dep)?;
    if (scraped.useful, scraped.noise) != (all.useful, all.noise) {
        failures.push(format!(
            "verdict tally: client useful/noise {}/{} != server cp_decisions_total {}/{}",
            all.useful, all.noise, scraped.useful, scraped.noise
        ));
    }
    all.marks.sort_unstable();
    all.marks.dedup();
    let missing = missing_marks(dep.nodes[0].port, &all.marks)?;
    if !missing.is_empty() {
        failures.push(format!(
            "{} acked marks missing from /v1/marks, e.g. {}",
            missing.len(),
            missing[0]
        ));
    }
    let rss_peak_mb = dep.servers().map(Server::vm_hwm_kb).sum::<u64>() as f64 / 1024.0;
    let server_flags = dep.flags();
    let hop_us = if args.trace {
        let hosts: Vec<String> = plans[0].open[0]
            .reqs
            .iter()
            .filter(|r| r.route == Route::Visit)
            .map(|r| r.host.clone())
            .take(256)
            .collect();
        router_hop_us(&dep, &hosts)?
    } else {
        0.0
    };

    // Recovery: kill every server, restart the primary alone on its data.
    drop(dep);
    let recovery = recover(args, dir, frozen.as_ref())?;
    if !recovery.missing_after.is_empty() {
        failures.push(format!(
            "{} acked marks missing after the recovery restart, e.g. {}",
            recovery.missing_after.len(),
            recovery.missing_after[0]
        ));
    }

    let mut lines = Vec::new();
    let visit_client = open_latency[0].clone();
    let mut metrics = Vec::new();
    let mut metric = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric { name: name.to_string(), value, unit });
    };
    if args.trace {
        let layer =
            layer_metrics(args, &plans, dir, &scraped, &visit_client, &mut lines, &mut failures)?;
        for (name, value, unit) in layer {
            metric(&name, value, unit);
        }
        metric("router.hop_us", hop_us, "us");
        metric("router.read_failover", scraped.router_read_failover as f64, "count");
        metric("wal.records_per_fsync", ratio(scraped.wal_records, scraped.wal_fsyncs), "count");
        metric("snapshot.count", scraped.snapshots as f64, "count");
        metric("recover.seconds", stats::median(&recovery.seconds), "s");
        metric("recover.records_replayed", recovery.records_replayed as f64, "count");
        metric("recover.us_per_record", recovery.us_per_record, "us");
        metric("repl.ack_p50_us", scraped.repl_ack_p50_us, "us");
        metric("repl.slow_demotions", scraped.repl_slow_demotions as f64, "count");
        for route in ROUTES {
            metric(&format!("server.request_us.{}", route.label()), scraped.route_p50(route), "us");
        }
        metric("server.wakeups_per_req", ratio(scraped.wakeups, scraped.requests), "count");
        metric("net.residual_us", visit_client.p50 as f64 - scraped.route_p50(Route::Visit), "us");
        metric("gen.late_p99_us", lateness.p99 as f64, "us");
        metric("gen.cpu_us_per_req", gen_cpu_us_per_req, "us");
        metric("client.visit_p90_us", visit_p90, "us");
        metric("client.visit_p99_us", visit_p99, "us");
        metric("client.fail_ratio", ratio(failed, attempted), "ratio");
    } else {
        // Load-phase timings at the reference machine speed (`speed.rs`);
        // the detail line keeps the measured values beside them.
        metric("setup_s", stats::median(&setups), "s");
        metric("visit_p50_us", visit_p50 / slowdown, "us");
        metric("read_p50_us", read_p50 / slowdown, "us");
        metric("classify_p50_us", classify_p50 / slowdown, "us");
        metric("cpu_us_per_req", cpu_us_per_req / slowdown, "us");
        metric("throughput_rps", throughput_rps * slowdown, "1/s");
        metric("rss_peak_mb", rss_peak_mb, "MB");
    }

    let timing_json = |t: &Timing| {
        Json::object()
            .set("samples", t.samples)
            .set("p50_us", t.p50)
            .set("p99_us", t.p99)
            .set("reliable_percentile", t.reliable_pct.map_or(Json::Null, Json::from))
            .set("reliable_value_us", t.reliable_value.map_or(Json::Null, Json::from))
    };
    let mut timings = Json::object();
    for (route, timing) in ROUTES.iter().zip(open_latency.iter()) {
        timings = timings.set(format!("open_loop.{}", route.label()), timing_json(timing));
    }
    timings = timings
        .set(
            "open_loop.visit.window_median",
            Json::object()
                .set("windows", open_windows * CYCLES as u32)
                .set("p50_us", visit_p50)
                .set("p90_us", visit_p90)
                .set("p99_us", visit_p99),
        )
        .set("open_loop.lateness", timing_json(&lateness))
        .set(
            "speed",
            Json::object()
                .set("reference_rtt_ns", speed::REFERENCE_RTT_NS)
                .set("samples_ns", speed_samples.clone())
                .set("slowdown", slowdown)
                .set("open_steal_ticks", open_steal.clone())
                .set("closed_steal_ticks", closed_steal.clone())
                .set(
                    "measured",
                    Json::object()
                        .set("visit_p50_us", visit_p50)
                        .set("read_p50_us", read_p50)
                        .set("classify_p50_us", classify_p50)
                        .set("cpu_us_per_req", cpu_us_per_req)
                        .set("throughput_rps", throughput_rps),
                ),
        )
        .set("setup_s", Json::object().set("samples", setups.len()).set("values", setups.clone()))
        .set(
            "recover_s",
            Json::object()
                .set("samples", recovery.seconds.len())
                .set("values", recovery.seconds.clone()),
        )
        .set(
            "closed_loop.window_rps",
            Json::object().set("samples", window_rps.len()).set("values", window_rps.clone()),
        );
    let provenance = Json::object()
        .set("workload", wl.name)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("commit", args.commit.as_str())
        .set("source_digest", args.source_digest.as_str())
        .set("nproc", nproc)
        .set("profile", "release (lto = true, codegen-units = 1)")
        .set("offered_rps", wl.offered_rps)
        .set("client_threads", threads)
        .set("connections_per_thread", 1u64)
        .set(
            "phases_s",
            Json::object()
                .set("warmup", args.seconds * WARMUP_SHARE)
                .set("open_loop", open_wall)
                .set("closed_loop", args.seconds * CLOSED_SHARE)
                .set("cycles", CYCLES),
        )
        .set("server_flags", server_flags.into_iter().map(Json::from).collect::<Vec<_>>())
        .set(
            "checks",
            Json::object()
                .set("client_verdicts", vec![all.useful, all.noise])
                .set("server_verdicts", vec![scraped.useful, scraped.noise])
                .set("acked_marks", all.marks.len())
                .set("failures", failures.clone()),
        );
    lines.push(Json::object().set("provenance", provenance).set("timings", timings).to_compact());
    for failure in &failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    Ok(Report { correct: failures.is_empty(), attempted, failed, metrics, lines })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs `f` on one scoped thread per plan, each with its own jar and
/// connection, and merges their tallies.
fn run_threads(
    plans: &mut [ThreadPlan],
    clients: &mut [(Jar, Conn)],
    f: impl Fn(&mut ThreadPlan, &mut (Jar, Conn)) -> Tally + Sync,
) -> Tally {
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter_mut()
            .zip(clients.iter_mut())
            .map(|(plan, client)| {
                let f = &f;
                scope.spawn(move || {
                    client::prepare_thread();
                    f(plan, client)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all = Tally::default();
    for tally in tallies {
        all.merge(tally);
    }
    all
}

/// The traced replay's per-layer metrics, plus the printed layer table.
fn layer_metrics(
    args: &Args,
    plans: &[ThreadPlan],
    dir: &Path,
    scraped: &Scrape,
    visit_client: &Timing,
    lines: &mut Vec<String>,
    failures: &mut Vec<String>,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let wl = &args.workload;
    let sequence = send_order(plans, wl.replay_requests);
    let bare = Tracer::new(false);
    let untraced =
        replay::run(wl, WORLD_SEED, &sequence, &bare, false, &dir.join("replay-untraced"))?;
    let tracer = Tracer::new(true);
    let traced = replay::run(wl, WORLD_SEED, &sequence, &tracer, true, &dir.join("replay-traced"))?;
    let spans = tracer.into_spans();
    let layers = trace::by_name(&spans);
    failures.extend(traced.checks.failures.iter().take(5).cloned());
    if traced.checks.plans_compared == 0 || traced.checks.pairs_compared == 0 {
        failures.push("the traced replay compared no plans or probe pairs".into());
    }
    let us = |name: &str| layers.get(name).map_or(0.0, |l| l.self_us());
    let wal = traced.wal.unwrap_or_default();
    let wal_append_us = layers.get("wal.append").map_or(0.0, |l| {
        (l.total_ns as f64 / 1_000.0 - wal.sync_us as f64) / l.calls.max(1) as f64
    });
    let lookups = traced.cache_hits + traced.cache_misses;
    let derives = traced.site_hits + traced.site_misses;
    let overhead = traced.request_ns as f64 / untraced.request_ns.max(1) as f64;
    let mut out: Vec<(String, f64, &'static str)> = vec![
        ("http.parse_us".into(), us("http.parse"), "us"),
        ("http.encode_us".into(), us("http.encode"), "us"),
        ("http.bytes_per_req".into(), ratio(traced.wire_bytes, traced.requests), "bytes"),
        ("json.parse_us".into(), us("json.parse"), "us"),
        ("json.encode_us".into(), us("json.encode"), "us"),
        ("world.site_us".into(), us("world.site"), "us"),
        ("world.derive_hit_ratio".into(), ratio(traced.site_hits, derives), "ratio"),
        ("world.lookups".into(), derives as f64, "count"),
        ("world.render_us".into(), us("world.render"), "us"),
        ("world.plan_visit_us".into(), us("world.plan_visit"), "us"),
        ("cache.hit_us".into(), us("cache.hit"), "us"),
        ("cache.miss_us".into(), us("cache.miss"), "us"),
        ("cache.hit_ratio".into(), ratio(traced.cache_hits, lookups), "ratio"),
        ("cache.lookups".into(), lookups as f64, "count"),
        ("html.parse_us".into(), us("html.parse"), "us"),
        ("core.analyze_us".into(), us("core.analyze"), "us"),
        ("core.decide_us".into(), us("core.decide"), "us"),
        ("core.probe_ratio".into(), ratio(traced.probes, traced.visits), "ratio"),
        ("core.visits".into(), traced.visits as f64, "count"),
        ("core.useful".into(), traced.useful as f64, "count"),
        ("core.noise".into(), traced.noise as f64, "count"),
        ("store.transact_self_us".into(), us("store.transact"), "us"),
        ("store.summary_us".into(), us("store.summary"), "us"),
        ("wal.append_us".into(), wal_append_us, "us"),
        ("wal.sync_us".into(), ratio(wal.sync_us, wal.syncs), "us"),
        ("wal.bytes_per_record".into(), ratio(wal.bytes, wal.records), "bytes"),
        ("repl.ship_us".into(), us("repl.ship"), "us"),
        ("trace.overhead_ratio".into(), overhead, "ratio"),
    ];

    // The p50 visit's breakdown: mean self time per layer over the visits
    // whose traced time lies within 5 points of the traced median.
    // `cp_request_micros` times the route handler only, so HTTP framing
    // and the replay's own glue sit outside the server-side p50.
    let breakdown = visit_breakdown(&spans);
    let outside_route = |name: &str| matches!(name, "http.parse" | "http.encode" | "request.glue");
    let server_p50 = scraped.route_p50(Route::Visit);
    let accounted: f64 =
        breakdown.iter().filter(|(name, _)| !outside_route(name)).map(|(_, us)| us).sum();
    let unaccounted = if server_p50 > 0.0 { (server_p50 - accounted) / server_p50 } else { 0.0 };
    out.push(("trace.visit_unaccounted_ratio".into(), unaccounted, "ratio"));

    lines.push(format!(
        "per-layer trace, {} ({} requests replayed, {} visits, {} probes; overhead {overhead:.3}x)",
        wl.name, traced.requests, traced.visits, traced.probes,
    ));
    lines.push(format!("  {:<22} {:>10} {:>12} {:>10}", "span", "calls", "self_us", "total_us"));
    for (name, total) in &layers {
        lines.push(format!(
            "  {:<22} {:>10} {:>12.3} {:>10.3}",
            name,
            total.calls,
            total.self_us(),
            total.total_us()
        ));
    }
    lines.push(
        "  /v1/visit at p50: layer self times (median-band visits), inside the route handler"
            .to_string(),
    );
    for (name, us) in breakdown.iter().filter(|(name, _)| !outside_route(name)) {
        lines.push(format!("    {name:<20} {us:>10.3} us"));
    }
    lines.push(format!(
        "    {:<20} {:>10.3} us  (server-side p50 {:.3} us; unaccounted {:.1}%)",
        "sum",
        accounted,
        server_p50,
        unaccounted * 100.0
    ));
    lines.push("  outside the route handler".to_string());
    for (name, us) in breakdown.iter().filter(|(name, _)| outside_route(name)) {
        lines.push(format!("    {name:<20} {us:>10.3} us"));
    }
    lines.push(format!(
        "    {:<20} {:>10.3} us  (client p50 {} us = server p50 + residual)",
        "net.residual",
        visit_client.p50 as f64 - server_p50,
        visit_client.p50
    ));
    Ok(out)
}

/// Mean self time per span name over the visits whose traced duration
/// lies between the 45th and 55th percentile; the root's own self time is
/// reported as `request.glue`.
fn visit_breakdown(spans: &[trace::Span]) -> Vec<(&'static str, f64)> {
    let own = trace::self_times(spans);
    let mut root = vec![0usize; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        root[i] = if span.parent == trace::ROOT { i } else { root[span.parent as usize] };
    }
    let mut visits: Vec<(u64, usize)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent == trace::ROOT && s.name == Route::Visit.label())
        .map(|(i, s)| (s.duration(), i))
        .collect();
    if visits.is_empty() {
        return Vec::new();
    }
    visits.sort_unstable();
    let lo = visits.len() * 45 / 100;
    let hi = (visits.len() * 55 / 100).max(lo + 1).min(visits.len());
    let band: HashSet<usize> = visits[lo..hi].iter().map(|(_, i)| *i).collect();
    let mut sums: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if band.contains(&root[i]) {
            let name = if span.parent == trace::ROOT { "request.glue" } else { span.name };
            *sums.entry(name).or_default() += own[i];
        }
    }
    sums.into_iter().map(|(name, ns)| (name, ns as f64 / band.len() as f64 / 1_000.0)).collect()
}
