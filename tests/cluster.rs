//! Cluster safety properties, pinned end-to-end over real sockets:
//!
//! 1. A stale-generation replication handshake is fenced — the follower
//!    answers with its (newer) generation and applies nothing.
//! 2. Promote → rejoin → re-promote never double-applies: once a node
//!    has witnessed a newer generation, the old primary's established
//!    stream stops being applied *and* stops being acked, so the stale
//!    primary cannot acknowledge writes the cluster will lose.
//!
//! Both are the invariants `scripts/cluster.sh` exercises with kill -9;
//! here they run deterministically in-process on every `cargo test`.
//!
//! The self-healing suite below adds the resync ladder (§16): backlog
//! replay across a partition, snapshot bootstrap when the ring is
//! overrun, and the bounded-stall guarantee for a silent follower —
//! each driven through the deterministic chaos proxy.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cookiepicker::serve::loadgen::Client;
use cookiepicker::serve::replication::{
    ReplAckPolicy, ACK_DEADLINE, HANDSHAKE_BYTES, HANDSHAKE_REPLY_BYTES, REPL_MAGIC,
};
use cookiepicker::serve::{start, ChaosProxy, Phase, ServeConfig, ServerHandle};
use cp_runtime::json::Json;

fn node(config: ServeConfig) -> ServerHandle {
    start(ServeConfig { workers: 2, timeout: Duration::from_millis(2_000), ..config })
        .expect("bind port 0")
}

fn get(port: u16, target: &str) -> String {
    let mut client = Client::new("127.0.0.1", port);
    let response = client.request("GET", target, b"").expect("request");
    response.body_string()
}

fn post(port: u16, target: &str, body: &str) -> (u16, String) {
    let mut client = Client::new("127.0.0.1", port);
    let response = client.request("POST", target, body.as_bytes()).expect("request");
    (response.status, response.body_string())
}

fn health(port: u16) -> Json {
    Json::parse(&get(port, "/healthz")).expect("healthz json")
}

fn applied_seq(port: u16) -> u64 {
    health(port).get("replication_applied_seq").and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// Trains the Table-1 site with genuinely useful preference cookies (S6)
/// through `port`, accumulating the jar so the probes see the cookies they
/// judge. Returns the host. Panics if any visit is not acked.
fn train_s6(port: u16) -> String {
    let host = cp_webworld::table1_population(7)[5].domain.clone();
    let mut client = Client::new("127.0.0.1", port);
    let mut jar: Vec<String> = Vec::new();
    for i in 0..8 {
        let path = if i == 0 { "/".to_string() } else { format!("/page/{i}") };
        let mut body = Json::object().set("host", host.as_str()).set("path", path);
        if !jar.is_empty() {
            body = body.set("cookie", jar.join("; "));
        }
        let response =
            client.request("POST", "/v1/visit", body.to_compact().as_bytes()).expect("visit");
        assert_eq!(response.status, 200, "{}", response.body_string());
        let json = Json::parse(&response.body_string()).unwrap();
        for cookie in json.get("set_cookies").and_then(Json::as_array).into_iter().flatten() {
            let cookie = cookie.as_str().unwrap().to_string();
            if !jar.contains(&cookie) {
                jar.push(cookie);
            }
        }
    }
    host
}

/// Scrapes one counter/gauge value from `port`'s Prometheus exposition.
fn metric(port: u16, name: &str) -> u64 {
    let exposition = get(port, "/metrics");
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(value) = rest.strip_prefix(' ') {
                return value.trim().parse::<f64>().unwrap_or(0.0) as u64;
            }
        }
    }
    0
}

/// Polls `check` until it passes or `secs` elapse (then panics with `what`).
fn wait_until(secs: u64, what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One acked training visit through `port`.
fn visit(port: u16, host: &str, path: &str) {
    let (status, body) =
        post(port, "/v1/visit", &format!(r#"{{"host":"{host}","path":"{path}"}}"#));
    assert_eq!(status, 200, "visit {path}: {body}");
}

/// Flips the proxy phase and waits out the pump re-sample window, so
/// traffic sent next is certainly subject to the new phase (a pump
/// mid-read can hold the previous phase for one read-timeout tick).
fn flip(proxy: &ChaosProxy, phase: Phase) {
    proxy.set_phase(phase);
    std::thread::sleep(Duration::from_millis(50));
}

/// Raw replication handshake against `addr`, returning the follower's
/// 17-byte reply `(status, generation, applied_seq)`.
fn handshake(addr: &str, generation: u64) -> (u8, u64, u64) {
    let mut stream = TcpStream::connect(addr).expect("connect repl");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut hello = [0u8; HANDSHAKE_BYTES];
    hello[..8].copy_from_slice(REPL_MAGIC);
    hello[8..].copy_from_slice(&generation.to_le_bytes());
    stream.write_all(&hello).expect("write handshake");
    let mut reply = [0u8; HANDSHAKE_REPLY_BYTES];
    stream.read_exact(&mut reply).expect("read handshake reply");
    (
        reply[0],
        u64::from_le_bytes(reply[1..9].try_into().unwrap()),
        u64::from_le_bytes(reply[9..17].try_into().unwrap()),
    )
}

#[test]
fn stale_generation_handshake_is_fenced_without_state_change() {
    let follower = node(ServeConfig { repl_port: Some(0), ..ServeConfig::default() });
    let repl = follower.repl_addr().expect("repl listener").to_string();

    // A fresh node accepts generation 5 — the reply carries its state
    // *before* adoption (generation 0, nothing applied) so the primary
    // learns how far behind the follower is.
    let (status, generation, seq) = handshake(&repl, 5);
    assert_eq!((status, generation, seq), (0, 0, 0));
    // Adoption happens right after the reply; poll the tiny window out.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let h = health(follower.port());
        if h.get("generation").and_then(Json::as_f64) == Some(5.0) {
            assert_eq!(h.get("role").and_then(Json::as_str), Some("follower"));
            break;
        }
        assert!(std::time::Instant::now() < deadline, "follower never adopted generation 5: {h:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Generation 3 is now stale: fenced, and the reply names the witnessed
    // generation so the caller knows how far behind it is.
    let (status, generation, _) = handshake(&repl, 3);
    assert_eq!(status, 1, "stale generation must be fenced");
    assert_eq!(generation, 5, "the fence reply names the witnessed generation");

    // No state change: still a generation-5 follower with nothing applied.
    let h = health(follower.port());
    assert_eq!(h.get("role").and_then(Json::as_str), Some("follower"));
    assert_eq!(h.get("generation").and_then(Json::as_f64), Some(5.0));
    assert_eq!(applied_seq(follower.port()), 0);
    assert_eq!(get(follower.port(), "/v1/marks"), "", "nothing applied, nothing marked");
}

#[test]
fn promote_rejoin_repromote_never_double_applies() {
    // Two nodes, both with replication listeners so either can follow.
    let a = node(ServeConfig { repl_port: Some(0), ..ServeConfig::default() });
    let b = node(ServeConfig { repl_port: Some(0), ..ServeConfig::default() });
    let a_repl = a.repl_addr().unwrap().to_string();
    let b_repl = b.repl_addr().unwrap().to_string();

    // A leads B at generation 1. Default quorum with one follower needs
    // that follower's ack, so every 200 means B holds the record too.
    let (status, body) =
        post(a.port(), "/v1/repl/lead", &format!(r#"{{"generation":1,"followers":["{b_repl}"]}}"#));
    assert_eq!(status, 200, "{body}");
    let host = train_s6(a.port());
    let marks = get(a.port(), "/v1/marks");
    assert!(!marks.is_empty(), "training must have marked something");
    assert_eq!(get(b.port(), "/v1/marks"), marks, "acked marks are on the follower");
    let applied_before = applied_seq(b.port());
    assert!(applied_before >= 1);

    // Promote B at generation 2 (no followers). A is now a stale primary
    // with an established gen-1 stream to B.
    let (status, body) = post(b.port(), "/v1/repl/lead", r#"{"generation":2,"followers":[]}"#);
    assert_eq!(status, 200, "{body}");

    // A write to the stale primary must not be acked: B fences the gen-1
    // stream mid-flight, A collects zero of its one required ack, and the
    // client sees 503 (safe to retry against the new primary).
    let (status, body) =
        post(a.port(), "/v1/visit", &format!(r#"{{"host":"{host}","path":"/stale-write"}}"#));
    assert_eq!(status, 503, "stale primary cannot ack: {body}");
    assert_eq!(
        applied_seq(b.port()),
        applied_before,
        "the fenced stream must not apply on the new primary"
    );

    // Rejoin: B re-leads at generation 3 with A as its follower — the
    // handshake adopts A (gen 3 > 1), demoting the stale primary.
    let (status, body) =
        post(b.port(), "/v1/repl/lead", &format!(r#"{{"generation":3,"followers":["{a_repl}"]}}"#));
    assert_eq!(status, 200, "{body}");
    assert_eq!(health(a.port()).get("role").and_then(Json::as_str), Some("follower"));
    assert_eq!(health(a.port()).get("generation").and_then(Json::as_f64), Some(3.0));

    // Direct writes to the demoted node are fenced...
    let (status, _) =
        post(a.port(), "/v1/visit", &format!(r#"{{"host":"{host}","path":"/demoted"}}"#));
    assert_eq!(status, 503);

    // ...and a write through the new primary applies exactly once on the
    // rejoined follower: its applied counter moves by one record, never two.
    let a_applied = applied_seq(a.port());
    let (status, body) =
        post(b.port(), "/v1/visit", &format!(r#"{{"host":"{host}","path":"/after-rejoin"}}"#));
    assert_eq!(status, 200, "{body}");
    assert_eq!(applied_seq(a.port()), a_applied + 1, "one acked write, one applied record");
    assert_eq!(get(a.port(), "/v1/marks"), get(b.port(), "/v1/marks"));
}

#[test]
fn partitioned_follower_resyncs_from_backlog_without_double_apply() {
    // Primary ships through a chaos proxy so the partition is a phase
    // flip, not a kill. Ack policy `none` keeps the primary writable
    // while the follower is unreachable — exactly the window the backlog
    // ring must cover.
    let a = node(ServeConfig {
        repl_port: Some(0),
        repl_ack: ReplAckPolicy::None,
        ..ServeConfig::default()
    });
    let b = node(ServeConfig { repl_port: Some(0), ..ServeConfig::default() });
    let proxy =
        ChaosProxy::start("127.0.0.1:0", &b.repl_addr().unwrap().to_string(), 7).expect("proxy");

    let (status, body) = post(
        a.port(),
        "/v1/repl/lead",
        &format!(r#"{{"generation":1,"followers":["{}"]}}"#, proxy.addr()),
    );
    assert_eq!(status, 200, "{body}");
    let host = train_s6(a.port());
    wait_until(10, "initial follower sync", || applied_seq(b.port()) == applied_seq(a.port()));
    let marks = get(a.port(), "/v1/marks");
    assert!(!marks.is_empty());

    // Partition. The primary keeps acking writes (policy none); the
    // follower misses them and its stream dies.
    flip(&proxy, Phase::Cut);
    for i in 0..6 {
        visit(a.port(), &host, &format!("/during-partition/{i}"));
    }
    let head = applied_seq(a.port());
    assert!(applied_seq(b.port()) < head, "follower must have missed the partition writes");

    // Heal: the maintenance thread redials through the proxy and replays
    // exactly the gap from the in-memory backlog — no restart, no
    // operator action, no snapshot.
    flip(&proxy, Phase::Open);
    wait_until(15, "backlog resync", || applied_seq(b.port()) == applied_seq(a.port()));
    assert_eq!(
        applied_seq(b.port()),
        head,
        "replay lands the follower exactly at the primary's head — an \
         overshoot would mean a record applied twice"
    );
    assert_eq!(get(b.port(), "/v1/marks"), get(a.port(), "/v1/marks"));
    assert!(metric(a.port(), "cp_repl_resync_total") >= 1, "resync must be counted");
    assert!(metric(a.port(), "cp_repl_resync_records_total") >= 6, "the gap was replayed");
    assert_eq!(metric(a.port(), "cp_repl_bootstrap_hints_total"), 0, "no bootstrap needed");

    // And the healed stream is live again: a post-heal write applies.
    visit(a.port(), &host, "/after-heal");
    wait_until(10, "post-heal ship", || applied_seq(b.port()) == applied_seq(a.port()));
}

#[test]
fn overrun_backlog_falls_back_to_snapshot_bootstrap() {
    // A four-record ring cannot cover a partition that misses eight
    // writes: the resync ladder must step down to the snapshot transfer.
    let a = node(ServeConfig {
        repl_port: Some(0),
        repl_ack: ReplAckPolicy::None,
        repl_backlog: 4,
        ..ServeConfig::default()
    });
    let b = node(ServeConfig { repl_port: Some(0), ..ServeConfig::default() });
    let proxy =
        ChaosProxy::start("127.0.0.1:0", &b.repl_addr().unwrap().to_string(), 7).expect("proxy");

    let (status, body) = post(
        a.port(),
        "/v1/repl/lead",
        &format!(r#"{{"generation":1,"followers":["{}"]}}"#, proxy.addr()),
    );
    assert_eq!(status, 200, "{body}");
    let host = train_s6(a.port());
    wait_until(10, "initial follower sync", || applied_seq(b.port()) == applied_seq(a.port()));

    flip(&proxy, Phase::Cut);
    for i in 0..8 {
        visit(a.port(), &host, &format!("/beyond-the-ring/{i}"));
    }
    flip(&proxy, Phase::Open);

    // The redial finds the follower beyond the ring, hints the bootstrap,
    // the follower pulls /v1/repl/snapshot from the primary and rejoins
    // the live stream at its head.
    wait_until(20, "snapshot bootstrap", || applied_seq(b.port()) == applied_seq(a.port()));
    assert_eq!(get(b.port(), "/v1/marks"), get(a.port(), "/v1/marks"));
    assert!(metric(a.port(), "cp_repl_bootstrap_hints_total") >= 1, "primary hinted the overrun");
    assert!(metric(b.port(), "cp_repl_bootstrap_total") >= 1, "follower installed a snapshot");

    // Still a working replica afterwards.
    visit(a.port(), &host, "/after-bootstrap");
    wait_until(10, "post-bootstrap ship", || applied_seq(b.port()) == applied_seq(a.port()));
}

#[test]
fn stalled_follower_is_demoted_within_the_ack_deadline() {
    // Two followers under quorum: one follower ack suffices (2 of 3
    // nodes). Stalling one must cost a write at most ~ACK_DEADLINE, not
    // the 5 s stream timeout the old path blocked for.
    let a = node(ServeConfig { repl_port: Some(0), ..ServeConfig::default() });
    let b = node(ServeConfig { repl_port: Some(0), ..ServeConfig::default() });
    let c = node(ServeConfig { repl_port: Some(0), ..ServeConfig::default() });
    let proxy =
        ChaosProxy::start("127.0.0.1:0", &c.repl_addr().unwrap().to_string(), 7).expect("proxy");

    let (status, body) = post(
        a.port(),
        "/v1/repl/lead",
        &format!(
            r#"{{"generation":1,"followers":["{}","{}"]}}"#,
            b.repl_addr().unwrap(),
            proxy.addr()
        ),
    );
    assert_eq!(status, 200, "{body}");
    let host = train_s6(a.port());
    wait_until(10, "both followers sync", || {
        applied_seq(b.port()) == applied_seq(a.port())
            && applied_seq(c.port()) == applied_seq(a.port())
    });

    // Stall: bytes stop flowing to/from C but its connection stays up —
    // the silent-peer case that must trip the deadline, not an error path.
    flip(&proxy, Phase::Stall);
    let started = Instant::now();
    visit(a.port(), &host, "/during-stall");
    let elapsed = started.elapsed();
    assert!(
        elapsed < ACK_DEADLINE * 8,
        "a stalled follower held the write for {elapsed:?} — the demotion \
         deadline is {ACK_DEADLINE:?}"
    );
    assert!(metric(a.port(), "cp_repl_slow_demotions_total") >= 1, "the stall demoted the peer");

    // Subsequent writes no longer pay the deadline at all: the demoted
    // peer is off the write path until it catches up.
    let started = Instant::now();
    for i in 0..3 {
        visit(a.port(), &host, &format!("/post-demotion/{i}"));
    }
    assert!(started.elapsed() < ACK_DEADLINE * 3, "catching-up peers must not gate client writes");
    assert_eq!(applied_seq(b.port()), applied_seq(a.port()), "quorum follower kept up");

    // Heal: the maintenance drain feeds C the backlog and promotes it.
    flip(&proxy, Phase::Open);
    wait_until(15, "stalled follower catch-up", || applied_seq(c.port()) == applied_seq(a.port()));
    assert_eq!(get(c.port(), "/v1/marks"), get(a.port(), "/v1/marks"));
}
