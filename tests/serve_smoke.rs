//! Smoke tests for cp-serve over real TCP: liveness, the classify
//! round-trip, error mapping (400/413), keep-alive, and graceful
//! shutdown draining.

use std::net::TcpStream;
use std::time::Duration;

use cookiepicker::serve::http::{write_request, write_response, HttpConn, HttpResponse, Limits};
use cookiepicker::serve::{start, ServeConfig, ServerHandle};
use cp_runtime::json::{FromJson, Json};

fn test_server() -> ServerHandle {
    start(ServeConfig { workers: 2, timeout: Duration::from_secs(2), ..ServeConfig::default() })
        .expect("bind port 0")
}

fn connect(server: &ServerHandle) -> HttpConn<TcpStream> {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    HttpConn::new(stream, Limits::default())
}

fn one_shot(server: &ServerHandle, method: &str, target: &str, body: &[u8]) -> HttpResponse {
    let mut conn = connect(server);
    write_request(conn.stream_mut(), method, target, "127.0.0.1", body).unwrap();
    conn.read_response().expect("response")
}

#[test]
fn healthz_responds_ok() {
    let server = test_server();
    let resp = one_shot(&server, "GET", "/healthz", b"");
    assert_eq!(resp.status, 200);
    let json = Json::parse(&resp.body_string()).unwrap();
    assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(json.get("seed").and_then(Json::as_u64), Some(7));
}

#[test]
fn classify_round_trips_a_decision() {
    let server = test_server();
    let payload = Json::object()
        .set(
            "regular",
            "<html><body><h1>shop</h1><ul><li>wishlist a</li><li>wishlist b</li></ul>\
             <div><p>recommended for you</p></div></body></html>",
        )
        .set("hidden", "<html><body><h1>shop</h1><p>sign in</p></body></html>")
        .to_compact();
    let resp = one_shot(&server, "POST", "/v1/classify", payload.as_bytes());
    assert_eq!(resp.status, 200, "{}", resp.body_string());
    // The response is the shared `Decision` serialization.
    let decision =
        cookiepicker::core::Decision::from_json(&Json::parse(&resp.body_string()).unwrap())
            .expect("decision JSON");
    assert!(decision.cookies_caused_difference, "structurally different pages → useful");
    assert!(decision.tree_sim < 0.85);
}

#[test]
fn malformed_requests_get_400() {
    let server = test_server();
    // Invalid JSON body on a valid route.
    assert_eq!(one_shot(&server, "POST", "/v1/classify", b"{oops").status, 400);
    // Malformed HTTP: garbage request line.
    let mut conn = connect(&server);
    use std::io::Write as _;
    conn.stream_mut().write_all(b"NOT-HTTP\r\n\r\n").unwrap();
    let resp = conn.read_response().expect("a 400, not a hangup");
    assert_eq!(resp.status, 400);
    // Unsupported version.
    let mut conn = connect(&server);
    conn.stream_mut().write_all(b"GET / HTTP/2.0\r\n\r\n").unwrap();
    assert_eq!(conn.read_response().unwrap().status, 400);
}

#[test]
fn oversize_body_gets_413() {
    let server = test_server();
    let huge = vec![b'x'; 2 * 1024 * 1024]; // 2 MiB > 1 MiB default cap
    let mut conn = connect(&server);
    use std::io::Write as _;
    let head =
        format!("POST /v1/classify HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", huge.len());
    conn.stream_mut().write_all(head.as_bytes()).unwrap();
    // The server rejects from the declared length alone — it never reads
    // (or buffers) the oversize payload.
    let resp = conn.read_response().expect("413 response");
    assert_eq!(resp.status, 413);
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let server = test_server();
    let mut conn = connect(&server);
    for i in 0..5 {
        write_request(conn.stream_mut(), "GET", "/healthz", "127.0.0.1", b"").unwrap();
        let resp = conn.read_response().expect("keep-alive response");
        assert_eq!(resp.status, 200, "request {i}");
        assert_eq!(resp.headers.get("connection"), Some("keep-alive"));
    }
    // Visit + summary on the same connection.
    write_request(
        conn.stream_mut(),
        "POST",
        "/v1/visit",
        "127.0.0.1",
        br#"{"host":"news1.example"}"#,
    )
    .unwrap();
    assert_eq!(conn.read_response().unwrap().status, 200);
    write_request(conn.stream_mut(), "GET", "/v1/sites/news1.example", "127.0.0.1", b"").unwrap();
    assert_eq!(conn.read_response().unwrap().status, 200);
}

#[test]
fn http10_connection_closes_after_response() {
    let server = test_server();
    let mut conn = connect(&server);
    use std::io::Write as _;
    conn.stream_mut().write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let resp = conn.read_response().unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.headers.get("connection"), Some("close"));
}

#[test]
fn graceful_shutdown_drains_and_joins() {
    let mut server = test_server();
    // Prime some state so shutdown has in-flight history to drain behind.
    for _ in 0..3 {
        assert_eq!(
            one_shot(&server, "POST", "/v1/visit", br#"{"host":"news1.example"}"#).status,
            200
        );
    }
    let resp = one_shot(&server, "POST", "/v1/shutdown", b"");
    assert_eq!(resp.status, 200);
    server.wait(); // must return promptly: shards woken and drained
                   // The port is released: a fresh bind on the same address succeeds.
    let addr = server.addr();
    drop(server);
    std::net::TcpListener::bind(addr).expect("port released after shutdown");
}

#[test]
fn durable_restart_replays_zero_records_and_keeps_marks() {
    // Satellite of the durability PR: a graceful shutdown flushes the WAL
    // and snapshots, so a clean restart replays *zero* records and serves
    // the identical mark set.
    let dir = std::env::temp_dir().join(format!("cp-smoke-durable-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = || ServeConfig {
        workers: 2,
        data_dir: Some(dir.clone()),
        timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let mut server = start(config()).expect("bind durable server");
    // Train every embedded site: the first visit collects its cookie jar,
    // two follow-ups probe with cookies attached so marks can land.
    let hosts: Vec<String> =
        cookiepicker::serve::EmbeddedWorld::new(7).hosts().iter().map(|h| h.to_string()).collect();
    for host in &hosts {
        let body = Json::object().set("host", host.as_str()).to_compact();
        let first = one_shot(&server, "POST", "/v1/visit", body.as_bytes());
        assert_eq!(first.status, 200, "{}", first.body_string());
        let json = Json::parse(&first.body_string()).unwrap();
        let jar: Vec<String> = json
            .get("set_cookies")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_string)
            .collect();
        for i in 1..=2 {
            let body = Json::object()
                .set("host", host.as_str())
                .set("path", format!("/page/{i}"))
                .set("cookie", jar.join("; "))
                .to_compact();
            assert_eq!(one_shot(&server, "POST", "/v1/visit", body.as_bytes()).status, 200);
        }
    }
    let marks_before = one_shot(&server, "GET", "/v1/marks", b"").body_string();
    assert!(!marks_before.is_empty(), "training across all sites must mark something");
    assert_eq!(one_shot(&server, "POST", "/v1/shutdown", b"").status, 200);
    server.wait(); // flushes the WAL and writes the final snapshot
    drop(server);

    let server = start(config()).expect("restart on the same data dir");
    let metrics = one_shot(&server, "GET", "/metrics", b"").body_string();
    assert!(
        metrics.contains("cp_recovery_records_replayed 0"),
        "clean restart must replay zero records:\n{metrics}"
    );
    let health = Json::parse(&one_shot(&server, "GET", "/healthz", b"").body_string()).unwrap();
    assert_eq!(health.get("durable").and_then(Json::as_bool), Some(true));
    let marks_after = one_shot(&server, "GET", "/v1/marks", b"").body_string();
    assert_eq!(marks_after, marks_before, "marks survive a clean restart byte-for-byte");
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sites_listing_paginates_the_whole_world_exactly_once() {
    let server = start(ServeConfig {
        workers: 2,
        world: cookiepicker::serve::WorldKind::Uniform(137),
        timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    })
    .expect("bind uniform world");
    let mut seen: Vec<String> = Vec::new();
    let mut cursor: Option<String> = None;
    let mut pages = 0;
    loop {
        let target = match &cursor {
            None => "/v1/sites?limit=25".to_string(),
            Some(c) => format!("/v1/sites?limit=25&after={c}"),
        };
        let resp = one_shot(&server, "GET", &target, b"");
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let json = Json::parse(&resp.body_string()).unwrap();
        assert_eq!(json.get("total").and_then(Json::as_u64), Some(137));
        let hosts: Vec<String> = json
            .get("hosts")
            .and_then(Json::as_array)
            .expect("hosts array")
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_string)
            .collect();
        assert_eq!(json.get("count").and_then(Json::as_u64), Some(hosts.len() as u64));
        seen.extend(hosts);
        pages += 1;
        match json.get("next").and_then(Json::as_str) {
            Some(next) => cursor = Some(next.to_string()),
            None => break,
        }
    }
    assert_eq!(pages, 6, "137 hosts in pages of 25");
    assert_eq!(seen.len(), 137, "the walk covers the whole world");
    let mut dedup = seen.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), 137, "no host listed twice");
    // A listed host is actually servable.
    let body = Json::object().set("host", seen[0].as_str()).to_compact();
    assert_eq!(one_shot(&server, "POST", "/v1/visit", body.as_bytes()).status, 200);
    // Unknown cursors and malformed limits are 400s, not silent empties.
    assert_eq!(one_shot(&server, "GET", "/v1/sites?after=nope.example", b"").status, 400);
    assert_eq!(one_shot(&server, "GET", "/v1/sites?limit=0", b"").status, 400);
    assert_eq!(one_shot(&server, "GET", "/v1/sites?limit=many", b"").status, 400);
    assert_eq!(one_shot(&server, "GET", "/v1/sites?page=2", b"").status, 400);
}

#[test]
fn sites_listing_defaults_cover_the_table1_world() {
    let server = test_server();
    let resp = one_shot(&server, "GET", "/v1/sites", b"");
    assert_eq!(resp.status, 200);
    let json = Json::parse(&resp.body_string()).unwrap();
    // The Table-1 population (30 hosts) fits in the default page of 50.
    assert_eq!(json.get("total").and_then(Json::as_u64), Some(30));
    assert_eq!(json.get("count").and_then(Json::as_u64), Some(30));
    assert_eq!(json.get("next"), Some(&Json::Null));
    let hosts: Vec<&str> = json
        .get("hosts")
        .and_then(Json::as_array)
        .expect("hosts array")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(hosts.windows(2).all(|w| w[0] < w[1]), "table1 listing is sorted");
    assert!(hosts.contains(&"news1.example"));
}

#[test]
fn full_queue_sheds_load_with_503() {
    // 1 shard, queue 1: an admission cap of 2 open connections. Hold two,
    // then watch the next connection get a 503 instead of being admitted.
    let server = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    })
    .unwrap();
    // Hold the first slot with an idle keep-alive connection (it stays
    // open until the read timeout).
    let _busy = connect(&server);
    std::thread::sleep(Duration::from_millis(50));
    let _queued = connect(&server); // holds the second slot
    std::thread::sleep(Duration::from_millis(50));
    let mut shed = connect(&server);
    let resp = shed.read_response().expect("shed connections get an inline 503");
    assert_eq!(resp.status, 503);
}

/// Polls `server`'s close-cause counter until it reaches `want` or a 5 s
/// deadline passes (the shard observes the close asynchronously).
fn await_close_cause(server: &ServerHandle, cause: &str, want: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let got = server.metrics().conn_closed.get(cause);
        if got >= want {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "cp_conn_closed_total{{cause=\"{cause}\"}} stuck at {got}, wanted {want}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn slowloris_stall_hits_read_timeout_and_closes_clean() {
    let server = start(ServeConfig {
        workers: 2,
        timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut conn = connect(&server);
    use std::io::{Read as _, Write as _};
    // A slowloris client: part of a request head, then silence.
    conn.stream_mut().write_all(b"GET /healthz HTT").unwrap();
    // The shard gives up after read_timeout and closes without writing a
    // response: the client's next read sees EOF (or a reset), never bytes.
    conn.stream_mut().set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 64];
    let n = conn.stream_mut().read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "a stalled head gets no response bytes, just a close");
    await_close_cause(&server, "timeout", 1);
    // The stall consumed no routing: no request was ever recorded.
    let text = server.metrics().render_prometheus();
    assert!(text.contains("cp_requests_total{endpoint=\"healthz\"} 0"), "{text}");
}

#[test]
fn truncated_body_stall_times_out_and_is_accounted() {
    let server = start(ServeConfig {
        workers: 2,
        timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut conn = connect(&server);
    use std::io::{Read as _, Write as _};
    // A complete head declaring 100 body bytes, but only a fragment sent.
    conn.stream_mut()
        .write_all(
            b"POST /v1/classify HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n{\"regular\"",
        )
        .unwrap();
    conn.stream_mut().set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 64];
    let n = conn.stream_mut().read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "a half-sent body gets no response, just a close");
    await_close_cause(&server, "timeout", 1);
    // The handler never ran: classify counted no request and no response
    // class was recorded for it.
    let text = server.metrics().render_prometheus();
    assert!(text.contains("cp_requests_total{endpoint=\"classify\"} 0"), "{text}");
}

#[test]
fn close_cause_metrics_cover_clean_and_shed_paths() {
    // HTTP/1.0 → served then closed with cause "client".
    let server = test_server();
    let mut conn = connect(&server);
    use std::io::Write as _;
    conn.stream_mut().write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    assert_eq!(conn.read_response().unwrap().status, 200);
    await_close_cause(&server, "client", 1);

    // Over the admission cap → the shard's inline 503 records cause "shed".
    let server = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    })
    .unwrap();
    let _busy = connect(&server);
    std::thread::sleep(Duration::from_millis(50));
    let _queued = connect(&server);
    std::thread::sleep(Duration::from_millis(50));
    let mut shed = connect(&server);
    assert_eq!(shed.read_response().unwrap().status, 503);
    assert_eq!(server.metrics().conn_closed.get("shed"), 1);
}

/// A `/v1/classify` body whose two pages hold `siblings` sibling `<div>`s
/// each: tree matching costs the product of the two counts.
fn wide_classify(siblings: usize) -> Vec<u8> {
    let page = |word: &str| {
        let divs: String = (0..siblings).map(|i| format!("<div><p>{word} {i}</p></div>")).collect();
        format!("<html><body>{divs}</body></html>")
    };
    Json::object()
        .set("regular", page("cart"))
        .set("hidden", page("guest"))
        .to_compact()
        .into_bytes()
}

#[test]
fn connections_opened_one_after_another_are_served_in_parallel() {
    let server = start(ServeConfig {
        workers: 4,
        timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    })
    .unwrap();
    // Open A, then B, each confirmed by `/healthz`, the way the benchmark
    // client opens its connections. The pause lets A's shard go back to
    // its poll first; left to the kernel's wake-up, B would join A there.
    let open = || {
        let mut conn = connect(&server);
        write_request(conn.stream_mut(), "GET", "/healthz", "127.0.0.1", b"").unwrap();
        assert_eq!(conn.read_response().unwrap().status, 200);
        conn
    };
    let mut a = open();
    std::thread::sleep(Duration::from_millis(50));
    let mut b = open();
    // A classify that takes a few hundred milliseconds in a debug build.
    write_request(a.stream_mut(), "POST", "/v1/classify", "127.0.0.1", &wide_classify(600))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let mut get = |target: &str| {
        write_request(b.stream_mut(), "GET", target, "127.0.0.1", b"").unwrap();
        let resp = b.read_response().unwrap();
        assert_eq!(resp.status, 200, "{target}");
        resp.body_string()
    };
    get("/healthz");
    let metrics = get("/metrics");
    // B was answered while A's response is still pending: they do not
    // share a shard.
    use std::io::Read as _;
    a.stream_mut().set_nonblocking(true).unwrap();
    let pending = a.stream_mut().read(&mut [0u8; 1]).map_err(|e| e.kind());
    assert_eq!(pending, Err(std::io::ErrorKind::WouldBlock), "B waited behind A's classify");
    // Both shards were inside a poll batch at the scrape: the gauge sums
    // them.
    assert!(metrics.lines().any(|line| line == "cp_ready_conns 2"), "{metrics}");
    a.stream_mut().set_nonblocking(false).unwrap();
    assert_eq!(a.read_response().unwrap().status, 200);
}

#[test]
fn response_writer_is_parseable_by_own_client() {
    // Round-trip sanity for the shared wire layer used by both sides.
    let mut wire = Vec::new();
    write_response(&mut wire, 200, "OK", "application/json", br#"{"ok":true}"#, true).unwrap();
    let mut conn = HttpConn::new(std::io::Cursor::new(wire), Limits::default());
    assert_eq!(conn.read_response().unwrap().status, 200);
}
