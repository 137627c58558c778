//! Server processes: spawn from the release binary, wait for the first
//! 200 `/healthz`, sample CPU and peak RSS from `/proc`, scrape
//! `/metrics`, and kill.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cp_serve::loadgen::Client;

/// How long a process may take to print its listening banner.
const BANNER_TIMEOUT: Duration = Duration::from_secs(60);

/// One running `cookiepicker` process.
pub struct Server {
    /// The arguments it was started with.
    pub args: Vec<String>,
    /// HTTP port.
    pub port: u16,
    /// Replication port, when started with `--repl-port`.
    pub repl_port: Option<u16>,
    child: Child,
    banner: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `bin args…`, reads the listening banner for the bound ports,
    /// and sends stderr to `log`.
    pub fn spawn(bin: &Path, name: &str, args: Vec<String>, log: &Path) -> Result<Server, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let wants_repl = args.iter().any(|a| a == "--repl-port");
        // The banner is read on a helper thread so a process that hangs
        // before printing it cannot hang the benchmark.
        let (tx, rx) = mpsc::channel();
        let banner = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut server = Server { args, port: 0, repl_port: None, child, banner: Some(banner) };
        let deadline = Instant::now() + BANNER_TIMEOUT;
        while server.port == 0 || (wants_repl && server.repl_port.is_none()) {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx.recv_timeout(left).map_err(|_| {
                format!("{name} printed no listening banner (see {})", log.display())
            })?;
            if let Some(port) = port_after(&line, "listening on http://") {
                server.port = port;
            } else if let Some(port) = port_after(&line, "replication on ") {
                server.repl_port = Some(port);
            }
        }
        Ok(server)
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL`s the process and reaps it.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(banner) = self.banner.take() {
            let _ = banner.join();
        }
    }

    /// `utime + stime` so far, in clock ticks.
    pub fn cpu_ticks(&self) -> u64 {
        cpu_ticks(self.pid())
    }

    /// Peak resident set (`VmHWM`), in kB.
    pub fn vm_hwm_kb(&self) -> u64 {
        status_kb(self.pid(), "VmHWM:")
    }

    /// `GET path` against this process.
    pub fn get(&self, path: &str) -> Result<String, String> {
        get(self.port, path)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Parses the port of `host:port` following `marker` in a banner line.
fn port_after(line: &str, marker: &str) -> Option<u16> {
    let rest = &line[line.find(marker)? + marker.len()..];
    let addr = rest.split_whitespace().next()?;
    addr.rsplit_once(':')?.1.parse().ok()
}

/// `GET path` on `127.0.0.1:port`; the body of a 200, else an error.
pub fn get(port: u16, path: &str) -> Result<String, String> {
    let mut client = Client::with_policy("127.0.0.1", port, 0, Duration::ZERO);
    match client.request("GET", path, b"") {
        Ok(response) if response.status == 200 => Ok(response.body_string()),
        Ok(response) => Err(format!("GET {path} on port {port}: status {}", response.status)),
        Err(e) => Err(format!("GET {path} on port {port}: {e}")),
    }
}

/// Polls `/healthz` on `port` until it answers 200; returns when it did.
pub fn await_healthy(port: u16, timeout: Duration) -> Result<Instant, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let mut client = Client::with_policy("127.0.0.1", port, 0, Duration::ZERO);
        if let Ok(response) = client.request("GET", "/healthz", b"") {
            if response.status == 200 {
                return Ok(Instant::now());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("port {port} never answered 200 on /healthz"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn sync();
}

/// Flushes every filesystem's dirty data and metadata (`sync(2)`).
pub fn sync_disks() {
    // SAFETY: sync takes no arguments and cannot fail.
    unsafe { sync() }
}

/// Clock ticks per second (`sysconf(_SC_CLK_TCK)`).
pub fn clock_ticks_per_second() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf reads a constant and has no preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// `utime + stime` of process `pid` (every thread), in clock ticks; 0 when
/// the process is gone.
pub fn cpu_ticks(pid: u32) -> u64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else { return 0 };
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    field(11) + field(12)
}

/// Clock ticks the hypervisor ran something else while this machine's
/// CPUs had work (`steal`, summed over CPUs, from `/proc/stat`); 0 where
/// the kernel does not account it.
pub fn steal_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return 0 };
    // "cpu  user nice system idle iowait irq softirq steal …"
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse().ok())
        .unwrap_or(0)
}

/// This process's own `utime + stime`, in clock ticks.
pub fn self_cpu_ticks() -> u64 {
    cpu_ticks(std::process::id())
}

/// A `kB` line of `/proc/<pid>/status`.
fn status_kb(pid: u32, key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else { return 0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// A fresh scratch directory for one run's data dirs and logs.
pub fn run_dir(root: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = root.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One counter line of a Prometheus exposition (0 when absent).
pub fn counter(exposition: &str, series: &str) -> u64 {
    cp_serve::metrics::scrape_counter(exposition, series).unwrap_or(0)
}

/// Cumulative buckets of one labeled histogram series, e.g.
/// `labeled_buckets(text, "cp_request_micros", "route=\"visit\"")`.
pub fn labeled_buckets(exposition: &str, name: &str, label: &str) -> Vec<(u64, u64)> {
    let prefix = format!("{name}_bucket{{{label},le=\"");
    exposition
        .lines()
        .filter_map(|line| {
            let (le, value) = line.strip_prefix(&prefix)?.split_once("\"}")?;
            let bound = if le == "+Inf" { u64::MAX } else { le.parse().ok()? };
            Some((bound, value.trim().parse().ok()?))
        })
        .collect()
}

/// Adds `more` into `into`, bucket by bucket (same bounds).
pub fn merge_buckets(into: &mut Vec<(u64, u64)>, more: &[(u64, u64)]) {
    if into.is_empty() {
        into.extend_from_slice(more);
        return;
    }
    for (mine, theirs) in into.iter_mut().zip(more) {
        mine.1 += theirs.1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_ports_parse() {
        let line = "cp-serve listening on http://127.0.0.1:40123 (seed 7, world table1)";
        assert_eq!(port_after(line, "listening on http://"), Some(40123));
        let line = "cp-serve replication on 127.0.0.1:40999 (ack quorum)";
        assert_eq!(port_after(line, "replication on "), Some(40999));
        assert_eq!(port_after("cp-serve durable (fsync batch)", "listening on http://"), None);
    }

    #[test]
    fn labeled_histograms_scrape_and_merge() {
        let text = "cp_request_micros_bucket{route=\"visit\",le=\"8\"} 3\n\
                    cp_request_micros_bucket{route=\"visit\",le=\"+Inf\"} 5\n\
                    cp_request_micros_bucket{route=\"sites\",le=\"8\"} 9\n";
        let visit = labeled_buckets(text, "cp_request_micros", "route=\"visit\"");
        assert_eq!(visit, vec![(8, 3), (u64::MAX, 5)]);
        let mut merged = Vec::new();
        merge_buckets(&mut merged, &visit);
        merge_buckets(&mut merged, &visit);
        assert_eq!(merged, vec![(8, 6), (u64::MAX, 10)]);
    }

    #[test]
    fn own_process_has_cpu_and_rss() {
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0u64);
        }
        assert!(self_cpu_ticks() > 0);
        assert!(status_kb(std::process::id(), "VmHWM:") > 0);
        assert!(clock_ticks_per_second() >= 1.0);
    }
}
