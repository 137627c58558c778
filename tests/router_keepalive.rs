//! Regression test for the router's cached backend connection: a POST
//! proxied after the node closed that connection for idleness must be
//! answered, not turned into a 503.
//!
//! Each router shard keeps one keep-alive connection per backend. The
//! node closes a keep-alive that sits idle for its read timeout. A request
//! written into the closed socket only fails at the read, and a POST is not
//! re-sent after it went out, so the router must notice the close before
//! writing and redial.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cookiepicker::serve::http::{write_request, HttpConn, HttpResponse, Limits};
use cookiepicker::serve::{start, start_router, BackendAddr, RouterConfig, ServeConfig};
use cp_runtime::json::Json;

fn post(addr: SocketAddr, target: &str, body: &[u8]) -> HttpResponse {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut conn = HttpConn::new(stream, Limits::default());
    write_request(conn.stream_mut(), "POST", target, "127.0.0.1", body).unwrap();
    conn.read_response().expect("response")
}

#[test]
fn post_after_the_backend_closed_an_idle_keep_alive_is_proxied() {
    let node = start(ServeConfig {
        repl_port: Some(0),
        timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .expect("start node");
    let router = start_router(RouterConfig {
        workers: 1,
        backends: vec![BackendAddr {
            http: node.addr().to_string(),
            repl: node.repl_addr().expect("repl listener").to_string(),
        }],
        ..RouterConfig::default()
    })
    .expect("start router");

    let host = cp_webworld::table1_population(7)[0].domain.clone();
    let body = Json::object().set("host", host.as_str()).set("path", "/").to_compact();
    let first = post(router.addr(), "/v1/visit", body.as_bytes());
    assert_eq!(first.status, 200, "{}", first.body_string());

    // Outlast the node's idle timeout: it closes the worker's connection.
    std::thread::sleep(Duration::from_secs(1));
    let second = post(router.addr(), "/v1/visit", body.as_bytes());
    assert_eq!(second.status, 200, "{}", second.body_string());
}
