//! The router answers and accounts like a node: the same status for a
//! request that fails to parse, the same close cause after a 5xx, and an
//! idle keep-alive connection never keeps another connection waiting.
//!
//! The router serves from the node's event loop, so every one of these
//! decisions is made in one place; these tests pin the router's side.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cookiepicker::serve::http::{write_request, HttpConn, Limits};
use cookiepicker::serve::{
    start, start_router, BackendAddr, RouterConfig, RouterHandle, ServeConfig, ServerHandle,
};

fn connect(addr: SocketAddr) -> HttpConn<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    HttpConn::new(stream, Limits::default())
}

/// One node behind a one-shard router.
fn node_and_router() -> (ServerHandle, RouterHandle) {
    let node =
        start(ServeConfig { repl_port: Some(0), ..ServeConfig::default() }).expect("start node");
    let router = start_router(RouterConfig {
        workers: 1,
        backends: vec![BackendAddr {
            http: node.addr().to_string(),
            repl: node.repl_addr().expect("repl listener").to_string(),
        }],
        ..RouterConfig::default()
    })
    .expect("start router");
    (node, router)
}

/// Sends only the head of a request that declares a 2 MiB body, past the
/// 1 MiB default cap; both tiers must reject it from the declared length.
fn oversize_status(addr: SocketAddr) -> u16 {
    let mut conn = connect(addr);
    let head = "POST /v1/classify HTTP/1.1\r\nHost: t\r\nContent-Length: 2097152\r\n\r\n";
    conn.stream_mut().write_all(head.as_bytes()).unwrap();
    conn.read_response().expect("an error response, not a hangup").status
}

#[test]
fn oversize_body_gets_413_from_the_router_as_from_a_node() {
    let (node, router) = node_and_router();
    assert_eq!(oversize_status(node.addr()), 413);
    assert_eq!(oversize_status(router.addr()), 413);
}

#[test]
fn router_counts_the_close_after_a_5xx_as_error() {
    let (node, router) = node_and_router();
    node.shutdown();
    drop(node);

    let mut conn = connect(router.addr());
    let body = br#"{"host":"news1.example"}"#;
    write_request(conn.stream_mut(), "POST", "/v1/visit", "127.0.0.1", body).unwrap();
    let resp = conn.read_response().expect("response");
    assert_eq!(resp.status, 503, "{}", resp.body_string());
    assert_eq!(resp.headers.get("connection"), Some("close"));

    // The router counts the close after writing the response; poll briefly.
    let metrics = router.metrics();
    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.conn_closed.get("error") == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let (client, error) = (metrics.conn_closed.get("client"), metrics.conn_closed.get("error"));
    assert_eq!((client, error), (0, 1), "a 5xx close is an error, as on a node");
}

#[test]
fn an_idle_keep_alive_does_not_hold_the_routers_only_shard() {
    let (_node, router) = node_and_router();
    // A few seconds, not the router's timeouts: a router that serves B
    // only once A is closed fails here rather than after A's timeout.
    let patience = Some(Duration::from_secs(3));
    let get_healthz = |conn: &mut HttpConn<TcpStream>| {
        write_request(conn.stream_mut(), "GET", "/healthz", "127.0.0.1", b"").unwrap();
        conn.read_response().expect("a /healthz answer").status
    };

    // A: confirmed by one round trip, then left idle and open.
    let mut a = connect(router.addr());
    a.stream_mut().set_read_timeout(patience).unwrap();
    assert_eq!(get_healthz(&mut a), 200);

    // B: a fresh connection is served while A sits on the only shard.
    let started = Instant::now();
    let mut b = connect(router.addr());
    b.stream_mut().set_read_timeout(patience).unwrap();
    assert_eq!(get_healthz(&mut b), 200);
    let body = br#"{"host":"news1.example"}"#;
    write_request(b.stream_mut(), "POST", "/v1/visit", "127.0.0.1", body).unwrap();
    let visit = b.read_response().expect("a /v1/visit answer");
    assert_eq!(visit.status, 200, "{}", visit.body_string());
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(1), "B waited {waited:?} behind idle A");

    // A is still open and still served.
    assert_eq!(get_healthz(&mut a), 200);
}
