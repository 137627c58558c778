//! The benchmark's load generator: open-loop (sends on a seeded schedule,
//! pipelined on one keep-alive connection per thread) and closed-loop (one
//! request in flight per connection).
//!
//! Open-loop latency runs from the request's *intended* send time, so a
//! stall that delays later sends is charged to them instead of hidden
//! (coordinated omission); how late each send actually went out is
//! recorded too. Cookie jars update from responses as they arrive.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use crate::workload::{Req, Route, Stream};

/// Routes in reporting order (index into [`Tally::latency`]).
pub const ROUTES: [Route; 4] = [Route::Visit, Route::Healthz, Route::Sites, Route::Classify];

fn route_index(route: Route) -> usize {
    ROUTES.iter().position(|r| *r == route).expect("every route is listed")
}

/// One client's cookie jars, keyed by host.
#[derive(Debug, Default)]
pub struct Jar {
    cookies: HashMap<String, Vec<String>>,
}

impl Jar {
    /// The `Cookie` header value for `req`, when the jar holds any.
    pub fn header_for(&self, req: &Req) -> Option<String> {
        if req.route != Route::Visit {
            return None;
        }
        self.cookies.get(&req.host).filter(|jar| !jar.is_empty()).map(|jar| jar.join("; "))
    }

    /// Stores the `name=value` cookies a visit response set.
    pub fn store<'a>(&mut self, host: &str, set_cookies: impl Iterator<Item = &'a str>) {
        let jar = self.cookies.entry(host.to_string()).or_default();
        for cookie in set_cookies {
            if !jar.iter().any(|c| c == cookie) {
                jar.push(cookie.to_string());
            }
        }
    }
}

/// What one client thread saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests written.
    pub sent: u64,
    /// Responses received.
    pub answered: u64,
    /// 5xx responses.
    pub status_5xx: u64,
    /// Responses that are neither 2xx nor the expected "site not yet
    /// visited" 404 of a summary read.
    pub unexpected: u64,
    /// Requests lost to connect/read/write errors.
    pub transport_errors: u64,
    /// Requests still unanswered when the drain deadline passed.
    pub unanswered: u64,
    /// `useful` verdicts in visit and classify responses.
    pub useful: u64,
    /// `noise` verdicts.
    pub noise: u64,
    /// `host cookie` for every mark a visit response acknowledged.
    pub marks: Vec<String>,
    /// `(window, latency µs)` per route, indexed like [`ROUTES`];
    /// measured open-loop requests only.
    pub latency: [Vec<(u32, u64)>; 4],
    /// How late each measured open-loop send went out (µs).
    pub lateness: Vec<u64>,
    /// Closed loop: completions per window.
    pub windows: Vec<u64>,
}

impl Tally {
    /// Requests that failed: 5xx, unexpected status, transport, unanswered.
    pub fn failed(&self) -> u64 {
        self.status_5xx + self.unexpected + self.transport_errors + self.unanswered
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.status_5xx += other.status_5xx;
        self.unexpected += other.unexpected;
        self.transport_errors += other.transport_errors;
        self.unanswered += other.unanswered;
        self.useful += other.useful;
        self.noise += other.noise;
        self.marks.extend(other.marks);
        for (mine, theirs) in self.latency.iter_mut().zip(other.latency) {
            mine.extend(theirs);
        }
        self.lateness.extend(other.lateness);
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), 0);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            *mine += theirs;
        }
    }

    /// Checks a response's status and feeds its verdicts, marks and
    /// cookies into the tally and `jar`.
    fn observe(&mut self, req: &Req, status: u16, body: &[u8], jar: &mut Jar) {
        self.answered += 1;
        let body = std::str::from_utf8(body).unwrap_or("");
        match status {
            200..=299 => {}
            500..=599 => {
                self.status_5xx += 1;
                return;
            }
            404 if req.route == Route::Sites && body.contains("site not yet visited") => return,
            _ => {
                self.unexpected += 1;
                return;
            }
        }
        if !matches!(req.route, Route::Visit | Route::Classify) {
            return;
        }
        // Visit and classify bodies are compact JSON whose hosts, cookie
        // names and values never need escaping, so the few fields the
        // checks use are read by scanning instead of a full parse (the
        // generator shares two CPUs with the server). A body that does
        // contain an escape is not what the scanner understands.
        if body.contains('\\') {
            self.unexpected += 1;
            return;
        }
        let verdict = if req.route == Route::Visit && body.contains("\"record\":null") {
            None
        } else if body.contains("\"cookies_caused_difference\":true") {
            Some(true)
        } else if body.contains("\"cookies_caused_difference\":false") {
            Some(false)
        } else {
            None
        };
        match verdict {
            Some(true) => self.useful += 1,
            Some(false) => self.noise += 1,
            None => {}
        }
        if req.route == Route::Visit {
            self.marks
                .extend(string_array(body, "marked_now").map(|n| format!("{} {n}", req.host)));
            jar.store(&req.host, string_array(body, "set_cookies"));
        }
    }
}

/// The elements of the escape-free string array `"key":[...]` in compact
/// JSON `body` (empty when absent).
fn string_array<'a>(body: &'a str, key: &str) -> impl Iterator<Item = &'a str> {
    let marker = format!("\"{key}\":[");
    let items = body
        .find(&marker)
        .map(|at| &body[at + marker.len()..])
        .and_then(|rest| rest.find(']').map(|end| &rest[..end]))
        .unwrap_or("");
    items.split(',').map(|item| item.trim_matches('"')).filter(|item| !item.is_empty())
}

/// Consecutive equal time windows a phase's samples are binned into, so
/// a percentile can be taken per window and the median over windows
/// reported — robust to a stall confined to a few windows.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    /// Index of this phase's first window.
    pub base: u32,
    /// Windows in this phase.
    pub count: u32,
    /// Window length, ns.
    pub span_ns: u64,
}

impl Windows {
    /// The window holding an event `offset_ns` into the phase.
    pub fn slot(&self, offset_ns: u64) -> u32 {
        self.base + ((offset_ns / self.span_ns.max(1)) as u32).min(self.count.saturating_sub(1))
    }
}

/// Latency measured from the intended send time and lateness of the
/// actual send, both in µs, from nanosecond offsets on one clock.
pub fn account(due_ns: u64, sent_ns: u64, done_ns: u64) -> (u64, u64) {
    (done_ns.saturating_sub(due_ns) / 1_000, sent_ns.saturating_sub(due_ns) / 1_000)
}

fn connect(port: u16) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct TimeSpec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const TimeSpec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Asks the kernel to end the calling thread's timed waits on time
/// instead of up to the default 50 µs late, so sends leave on schedule
/// without spinning on a core the server needs.
pub fn prepare_thread() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and affects
    // only the calling thread; the unused arguments are ignored.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Waits until `fd` is readable (or hung up) or `timeout` passes, with
/// nanosecond resolution — open-loop sends are tens of µs apart.
fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd { fd, events: POLLIN, revents: 0 };
    let ts = TimeSpec { tv_sec: timeout.as_secs() as i64, tv_nsec: timeout.subsec_nanos() as i64 };
    // SAFETY: `pfd` and `ts` are live locals for the whole call, `nfds` is
    // 1 to match the single `pfd`, and a null `sigmask` leaves the signal
    // mask untouched.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        return if err.kind() == io::ErrorKind::Interrupted { Ok(false) } else { Err(err) };
    }
    Ok(rc > 0)
}

/// One keep-alive connection, kept for every phase of a run so no server
/// or router connection idles long enough to hit a keep-alive timeout.
/// Responses are framed in place from one read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// `buf[start..end]` holds bytes read but not yet consumed.
    start: usize,
    end: usize,
}

impl Conn {
    /// Connects to `127.0.0.1:port` and completes one `/healthz` round
    /// trip before returning. Opening a run's connections one after
    /// another this way means each arrives while the server is idle, so
    /// which event-loop shard accepts it (the kernel wakes the first idle
    /// waiter) is the same in every run instead of racing the previous
    /// accept.
    pub fn open(port: u16) -> io::Result<Conn> {
        let mut conn = Conn { stream: connect(port)?, buf: vec![0; 64 * 1024], start: 0, end: 0 };
        let mut wire = Vec::new();
        cp_serve::http::append_request(&mut wire, "GET", "/healthz", "bench", b"");
        conn.stream.write_all(&wire)?;
        match conn.read_response()? {
            (200, _) => Ok(conn),
            (status, _) => Err(io::Error::other(format!("healthz answered {status}"))),
        }
    }

    /// Whether unconsumed response bytes are buffered.
    fn has_buffered(&self) -> bool {
        self.start < self.end
    }

    /// Reads one `Content-Length`-framed response; returns its status and
    /// body (valid until the next read).
    fn read_response(&mut self) -> io::Result<(u16, &[u8])> {
        loop {
            let window = &self.buf[self.start..self.end];
            if let Some(head_len) = window.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
            {
                let head = std::str::from_utf8(&window[..head_len])
                    .map_err(|_| io::Error::other("non-utf8 response head"))?;
                let status = head
                    .get(9..12)
                    .and_then(|code| code.parse().ok())
                    .ok_or_else(|| io::Error::other("bad status line"))?;
                let length = head
                    .lines()
                    .find_map(|line| {
                        let (name, value) = line.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().ok())?
                    })
                    .unwrap_or(0usize);
                if window.len() >= head_len + length {
                    let body = self.start + head_len..self.start + head_len + length;
                    self.start = body.end;
                    return Ok((status, &self.buf[body]));
                }
                if head_len + length > self.buf.len() {
                    self.buf.resize(head_len + length, 0);
                }
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        match self.stream.read(&mut self.buf[self.end..])? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.end += n;
                Ok(())
            }
        }
    }
}

/// Sends `reqs` at offsets `due` (ns from now) pipelined on `conn` and
/// reads responses as they arrive, for at most `drain` after the last
/// send. Latency and lateness are recorded, binned by `windows`, when
/// `record`.
pub fn open_loop(
    conn: &mut Conn,
    reqs: &[Req],
    due: &[u64],
    record: Option<Windows>,
    jar: &mut Jar,
    drain: Duration,
) -> Tally {
    let mut tally = Tally::default();
    let fd = conn.stream.as_raw_fd();
    let start = Instant::now();
    let elapsed = || start.elapsed().as_nanos() as u64;
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let mut wire: Vec<u8> = Vec::with_capacity(1024);
    let mut drain_until: Option<Instant> = None;
    loop {
        let now = elapsed();
        wire.clear();
        let batch_start = next;
        while next < reqs.len() && due[next] <= now {
            let req = &reqs[next];
            req.wire(jar.header_for(req).as_deref(), &mut wire);
            inflight.push_back(next);
            next += 1;
        }
        if next > batch_start {
            if conn.stream.write_all(&wire).is_err() {
                tally.transport_errors += (reqs.len() - next + inflight.len()) as u64;
                return tally;
            }
            let sent = elapsed();
            tally.sent += (next - batch_start) as u64;
            if record.is_some() {
                tally.lateness.extend((batch_start..next).map(|i| account(due[i], sent, sent).1));
            }
        }
        if next == reqs.len() {
            if inflight.is_empty() {
                break;
            }
            let until = *drain_until.get_or_insert_with(|| Instant::now() + drain);
            if Instant::now() >= until {
                tally.unanswered += inflight.len() as u64;
                break;
            }
        }
        let wait = if next < reqs.len() {
            Duration::from_nanos(due[next].saturating_sub(elapsed()))
        } else {
            drain_until.map_or(Duration::ZERO, |u| u.saturating_duration_since(Instant::now()))
        };
        if inflight.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        match wait_readable(fd, wait) {
            Ok(false) => continue,
            Ok(true) => {}
            Err(_) => {
                tally.transport_errors += (reqs.len() - next + inflight.len()) as u64;
                return tally;
            }
        }
        loop {
            let (status, body) = match conn.read_response() {
                Ok(response) => response,
                Err(_) => {
                    tally.transport_errors += (reqs.len() - next + inflight.len()) as u64;
                    return tally;
                }
            };
            let done = elapsed();
            let Some(i) = inflight.pop_front() else {
                tally.unexpected += 1;
                return tally;
            };
            if let Some(windows) = record {
                let sample = (windows.slot(due[i]), account(due[i], due[i], done).0);
                tally.latency[route_index(reqs[i].route)].push(sample);
            }
            tally.observe(&reqs[i], status, body, jar);
            if !conn.has_buffered() || inflight.is_empty() {
                break;
            }
        }
    }
    tally
}

/// Sends `req` on `conn` and reads its response into `tally` and `jar`;
/// false after a transport error (counted).
fn round_trip(
    conn: &mut Conn,
    req: &Req,
    jar: &mut Jar,
    wire: &mut Vec<u8>,
    tally: &mut Tally,
) -> bool {
    wire.clear();
    req.wire(jar.header_for(req).as_deref(), wire);
    tally.sent += 1;
    if conn.stream.write_all(wire).is_err() {
        tally.transport_errors += 1;
        return false;
    }
    match conn.read_response() {
        Ok((status, body)) => {
            tally.observe(req, status, body, jar);
            true
        }
        Err(_) => {
            tally.transport_errors += 1;
            false
        }
    }
}

/// Sends the next `n` requests of `stream` on `conn`, one at a time.
///
/// Run for one connection after another before any concurrent load, it
/// makes every connection a router worker opens to a backend open while
/// the cluster is otherwise idle, so each backend's event-loop shards
/// accept them in the same order in every run. Connections that race each
/// other land on a shard by chance, and the cluster's closed-loop
/// throughput moved by a quarter with the draw.
pub fn serial(conn: &mut Conn, stream: &mut Stream, jar: &mut Jar, n: usize) -> Tally {
    let mut tally = Tally::default();
    let mut wire: Vec<u8> = Vec::with_capacity(1024);
    for _ in 0..n {
        if !round_trip(conn, &stream.next_req(), jar, &mut wire, &mut tally) {
            break;
        }
    }
    tally
}

/// Runs `stream` back to back on `conn` (one request in flight) for the
/// span of `windows`, counting completions per window.
pub fn closed_loop(conn: &mut Conn, stream: &mut Stream, jar: &mut Jar, windows: Windows) -> Tally {
    let origin = Instant::now();
    let until = origin + Duration::from_nanos(windows.span_ns * windows.count as u64);
    let mut tally = Tally::default();
    let mut wire: Vec<u8> = Vec::with_capacity(1024);
    while Instant::now() < until {
        if !round_trip(conn, &stream.next_req(), jar, &mut wire, &mut tally) {
            return tally;
        }
        let slot = windows.slot(origin.elapsed().as_nanos() as u64) as usize;
        if tally.windows.len() <= slot {
            tally.windows.resize(slot + 1, 0);
        }
        tally.windows[slot] += 1;
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_the_wait_a_stall_imposes() {
        // Ten requests due every 100 µs; the first leaves on time, then
        // the generator stalls until 1 ms, so sends 1..=9 all leave at
        // 1 ms. Each is answered 10 µs after it leaves.
        let due: Vec<u64> = (0..10).map(|i| i * 100_000).collect();
        let sent: Vec<u64> =
            due.iter().map(|&d| if d == 0 { 0 } else { d.max(1_000_000) }).collect();
        let done: Vec<u64> = sent.iter().map(|&s| s + 10_000).collect();
        let (latency, lateness): (Vec<u64>, Vec<u64>) =
            (0..10).map(|i| account(due[i], sent[i], done[i])).unzip();
        assert_eq!(lateness, vec![0, 900, 800, 700, 600, 500, 400, 300, 200, 100]);
        // From the intended time, the stall shows in every delayed request…
        assert_eq!(latency, vec![10, 910, 810, 710, 610, 510, 410, 310, 210, 110]);
        // …where timing from the actual send would report a flat 10 µs.
        assert!((0..10).all(|i| (done[i] - sent[i]) / 1_000 == 10));
        // A send can never be early, and clock skew cannot go negative.
        assert_eq!(account(500, 400, 450), (0, 0));
    }

    #[test]
    fn jar_sends_cookies_back_once_each() {
        let mut jar = Jar::default();
        let visit = Req { route: Route::Visit, host: "h.example".into(), path: "/".into() };
        assert_eq!(jar.header_for(&visit), None);
        jar.store("h.example", ["a=1", "b=2", "a=1"].into_iter());
        assert_eq!(jar.header_for(&visit).as_deref(), Some("a=1; b=2"));
        let read = Req { route: Route::Sites, host: "h.example".into(), path: String::new() };
        assert_eq!(jar.header_for(&read), None, "only visits carry cookies");
    }

    #[test]
    fn observe_reads_the_service_serialization() {
        use cookiepicker_core::{Decision, DetectionRecord};
        use cp_runtime::json::ToJson;
        use cp_serve::world::VisitOutcome;

        let mut tally = Tally::default();
        let mut jar = Jar::default();
        let visit = Req { route: Route::Visit, host: "h.example".into(), path: "/".into() };
        let decision = |useful| Decision {
            tree_sim: 0.25,
            text_sim: 0.5,
            cookies_caused_difference: useful,
            detection_micros: 7,
        };
        let outcome = |record: Option<DetectionRecord>, marked: &[&str]| VisitOutcome {
            host: "h.example".into(),
            path: "/".into(),
            record,
            marked_now: marked.iter().map(|m| m.to_string()).collect(),
            marked_total: marked.len(),
            training_active: true,
            set_cookies: vec!["sid=s1".into(), "lang=en".into()],
            inconclusive: None,
        };
        let probe = DetectionRecord {
            host: "h.example".into(),
            path: "/".into(),
            group: vec!["sid".into()],
            decision: decision(true),
            hidden_latency_ms: 0,
            duration_ms: 0.007,
        };
        let observed = outcome(None, &[]).to_compact_json();
        tally.observe(&visit, 200, observed.as_bytes(), &mut jar);
        assert_eq!((tally.useful, tally.noise), (0, 0), "no probe, no verdict");
        assert_eq!(jar.header_for(&visit).as_deref(), Some("sid=s1; lang=en"));
        let probed = outcome(Some(probe), &["sid"]).to_compact_json();
        tally.observe(&visit, 200, probed.as_bytes(), &mut jar);
        assert_eq!((tally.useful, tally.noise), (1, 0));
        assert_eq!(tally.marks, vec!["h.example sid".to_string()]);
        let classify = Req { route: Route::Classify, host: String::new(), path: "1".into() };
        let body = decision(false).to_json().to_compact();
        tally.observe(&classify, 200, body.as_bytes(), &mut jar);
        assert_eq!((tally.useful, tally.noise), (1, 1));

        let read = Req { route: Route::Sites, host: "h.example".into(), path: String::new() };
        tally.observe(&read, 404, br#"{"error":"site not yet visited"}"#, &mut jar);
        tally.observe(&read, 404, br#"{"error":"unknown host"}"#, &mut jar);
        tally.observe(&visit, 503, b"{}", &mut jar);
        tally.observe(&visit, 200, br#"{"host":"h\"x"}"#, &mut jar);
        assert_eq!((tally.answered, tally.unexpected, tally.status_5xx), (7, 2, 1));
        assert_eq!(tally.failed(), 3);
    }

    #[test]
    fn responses_are_framed_across_reads_and_pipelined() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = [0u8; 1024];
            let _ = stream.read(&mut request).unwrap();
            let mut wire = Vec::new();
            for (status, body) in [(200, "ok"), (404, "gone"), (200, "")] {
                cp_serve::http::append_response(
                    &mut wire,
                    status,
                    "X",
                    "text/plain",
                    body.as_bytes(),
                    true,
                );
            }
            // The healthz answer, then two more responses split mid-head.
            let (first, rest) = wire.split_at(wire.len() / 2);
            stream.write_all(first).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            stream.write_all(rest).unwrap();
        });
        let mut conn = Conn::open(port).unwrap();
        assert_eq!(conn.read_response().unwrap(), (404, &b"gone"[..]));
        assert!(conn.has_buffered());
        assert_eq!(conn.read_response().unwrap(), (200, &b""[..]));
        assert!(!conn.has_buffered());
        server.join().unwrap();
    }
}
