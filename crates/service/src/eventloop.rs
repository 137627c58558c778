//! The node's serving path: sharded nonblocking event loops.
//!
//! `workers` shard threads each own a [`cp_runtime::net::Poller`], a slice
//! of connections, and a clone of the shared listener. On Linux the
//! listener is registered `EPOLLEXCLUSIVE` in every shard, so the kernel
//! wakes one shard per pending accept and no acceptor thread is needed;
//! under `poll(2)` every shard wakes and the losers' `accept` returns
//! `WouldBlock`. Each connection carries a read buffer feeding the
//! incremental request parser and a write buffer holding fully assembled
//! responses (head + body contiguous), flushed with single `write` calls.
//! There are no per-connection threads and no locks on the hot path: a
//! request is read, parsed, routed, recorded, and serialized entirely on
//! its shard.
//!
//! The two per-connection decisions, [`reply_parse_error`] and
//! [`close_cause`], are shared with the router's connection loop so both
//! answer and account alike. On non-unix targets [`spawn`] fails with
//! `Unsupported`.

use std::io::{self, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::http::{write_response, HttpError, HttpRequest};
use crate::metrics::{Endpoint, ServiceMetrics};
use crate::server::{error_json, ServeConfig, Shared};

/// Spawns one event-loop shard thread per `config.workers`.
pub(crate) fn spawn(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    config: &ServeConfig,
) -> io::Result<Vec<JoinHandle<()>>> {
    imp::spawn(shared, listener, config)
}

/// Answers a request that failed to parse on `out` and records it: `413`
/// for a declared body over the cap, `400` otherwise. The connection
/// closes after it with cause `error`, because framing may be lost.
pub(crate) fn reply_parse_error(
    metrics: &ServiceMetrics,
    err: &HttpError,
    out: &mut impl Write,
) -> io::Result<()> {
    let (status, reason, msg) = match err {
        HttpError::BodyTooLarge => (413, "Payload Too Large", "body too large".to_string()),
        // Malformed / HeadTooLarge / BadVersion.
        _ => (400, "Bad Request", err.to_string()),
    };
    metrics.record(Endpoint::Other, status, 0);
    write_response(out, status, reason, "application/json", &error_json(&msg), false)
}

/// Whether the response to `request` ends its connection, and under which
/// `cp_conn_closed_total` cause; `None` keeps the connection alive.
pub(crate) fn close_cause(
    request: &HttpRequest,
    status: u16,
    draining: bool,
) -> Option<&'static str> {
    if !request.keep_alive() {
        Some("client") // HTTP/1.0 or an explicit `Connection: close`
    } else if draining {
        Some("drain")
    } else if status >= 500 {
        Some("error") // 5xx: close so the peer re-syncs on a fresh conn
    } else {
        None
    }
}

#[cfg(unix)]
mod imp {
    use std::collections::HashMap;
    use std::io::{self, Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    use cp_runtime::net::{PollEvent, Poller};

    use super::{close_cause, reply_parse_error};
    use crate::http::{append_response, parse_request_buffer, write_response, HttpRequest, Limits};
    use crate::server::{error_json, route, ServeConfig, Shared};

    /// The listener's registration token; connections start at 1.
    const LISTENER_TOKEN: u64 = 0;

    /// Upper bound between housekeeping passes (timeout sweeps, drain
    /// checks): the loop wakes at least this often even when idle.
    const TICK: Duration = Duration::from_millis(100);

    /// Per-`read` chunk size; larger requests just take extra reads.
    const READ_CHUNK: usize = 16 * 1024;

    pub(crate) fn spawn(
        shared: &Arc<Shared>,
        listener: &TcpListener,
        config: &ServeConfig,
    ) -> io::Result<Vec<JoinHandle<()>>> {
        let shards = config.workers.max(1);
        // Create every poller before any thread spawns or the listener
        // changes mode, so a failure here leaves nothing running.
        let mut pollers = Vec::with_capacity(shards);
        for _ in 0..shards {
            pollers.push(Poller::new()?);
        }
        // Nonblocking applies to the shared file description: every
        // shard's clone inherits it.
        listener.set_nonblocking(true)?;
        // Admission cap: `workers + queue_capacity` open connections. The
        // count is global so the cap holds whichever shard accepts.
        let max_conns = shards + config.queue_capacity.max(1);
        let conn_count = Arc::new(AtomicUsize::new(0));
        pollers
            .into_iter()
            .map(|poller| {
                let shard = Shard {
                    shared: Arc::clone(shared),
                    listener: listener.try_clone()?,
                    poller,
                    conn_count: Arc::clone(&conn_count),
                    max_conns,
                    read_timeout: config.read_timeout,
                    write_timeout: config.write_timeout,
                    limits: config.limits,
                    conns: HashMap::new(),
                    next_token: LISTENER_TOKEN + 1,
                };
                Ok(std::thread::spawn(move || shard.run()))
            })
            .collect()
    }

    /// One connection owned by a shard.
    struct Conn {
        stream: TcpStream,
        /// Bytes received but not yet parsed into a request.
        inbuf: Vec<u8>,
        /// Assembled responses (head + body) not yet on the wire.
        outbuf: Vec<u8>,
        /// How much of `outbuf` has been written.
        out_pos: usize,
        /// Last byte of progress in either direction; timeout sweeps key
        /// off this.
        last_activity: Instant,
        /// Close (recording `close_cause`) once `outbuf` drains.
        close_after_flush: bool,
        close_cause: &'static str,
        /// Currently registered for write readiness.
        want_write: bool,
    }

    enum Flushed {
        Done,
        Pending,
        Failed,
    }

    struct Shard {
        shared: Arc<Shared>,
        listener: TcpListener,
        poller: Poller,
        conn_count: Arc<AtomicUsize>,
        max_conns: usize,
        read_timeout: Duration,
        write_timeout: Duration,
        limits: Limits,
        conns: HashMap<u64, Conn>,
        next_token: u64,
    }

    impl Shard {
        fn run(mut self) {
            if self.poller.add_exclusive(self.listener.as_raw_fd(), LISTENER_TOKEN).is_err() {
                return; // dead poller: bail rather than spin
            }
            let mut events: Vec<PollEvent> = Vec::new();
            loop {
                events.clear();
                let timeout = TICK.min(self.read_timeout);
                let _ = self.poller.wait(&mut events, Some(timeout));
                self.shared.metrics.event_loop_wakeups.inc();
                self.shared.metrics.ready_conns.set(events.len() as i64);
                for ev in events.iter().copied() {
                    if ev.token == LISTENER_TOKEN {
                        self.accept_burst();
                    } else {
                        self.drive(ev);
                    }
                }
                self.sweep_timeouts();
                if self.shared.shutting_down.load(Ordering::SeqCst) {
                    self.drain();
                    if self.conns.is_empty() {
                        break;
                    }
                }
            }
        }

        /// Accepts until the backlog is empty (the listener is
        /// level-triggered, so anything left re-fires the next wait).
        fn accept_burst(&mut self) {
            loop {
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                };
                if self.shared.shutting_down.load(Ordering::SeqCst) {
                    continue; // the shutdown wake-up self-connect, or a late arrival
                }
                self.shared.metrics.connections_total.inc();
                if self.conn_count.fetch_add(1, Ordering::AcqRel) >= self.max_conns {
                    self.conn_count.fetch_sub(1, Ordering::AcqRel);
                    self.shed(stream);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    self.conn_count.fetch_sub(1, Ordering::AcqRel);
                    continue;
                }
                let token = self.next_token;
                self.next_token += 1;
                if self.poller.add(stream.as_raw_fd(), token, false).is_err() {
                    self.conn_count.fetch_sub(1, Ordering::AcqRel);
                    continue;
                }
                self.conns.insert(
                    token,
                    Conn {
                        stream,
                        inbuf: Vec::new(),
                        outbuf: Vec::new(),
                        out_pos: 0,
                        last_activity: Instant::now(),
                        close_after_flush: false,
                        close_cause: "client",
                        want_write: false,
                    },
                );
            }
        }

        /// Over-capacity admission: answer `503` inline and drop. The
        /// just-accepted socket is still blocking, so the write needs no
        /// registration — it either lands in the socket buffer or the
        /// write timeout gives up.
        fn shed(&self, mut stream: TcpStream) {
            self.shared.metrics.rejected_total.inc();
            self.shared.metrics.conn_closed.inc("shed");
            let _ = stream.set_write_timeout(Some(self.write_timeout));
            let body = error_json("server overloaded");
            let _ = write_response(
                &mut stream,
                503,
                "Service Unavailable",
                "application/json",
                &body,
                false,
            );
        }

        /// One readiness event on a connection: read + serve, then flush.
        fn drive(&mut self, ev: PollEvent) {
            let Some(conn) = self.conns.get_mut(&ev.token) else { return };
            if ev.readable && !conn.close_after_flush {
                if let Some(cause) = fill_and_serve(&self.shared, &self.limits, conn) {
                    self.close(ev.token, cause);
                    return;
                }
            }
            self.flush(ev.token);
        }

        /// Writes as much of `outbuf` as the socket takes, adjusting the
        /// write-interest registration around partial flushes.
        fn flush(&mut self, token: u64) {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let result = flush_conn(conn);
            let fd = conn.stream.as_raw_fd();
            let close_after = conn.close_after_flush;
            let cause = conn.close_cause;
            let want_write = conn.want_write;
            match result {
                Flushed::Failed => self.close(token, "write_failed"),
                Flushed::Done if close_after => self.close(token, cause),
                Flushed::Done => {
                    if want_write {
                        let _ = self.poller.modify(fd, token, false);
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.want_write = false;
                        }
                    }
                }
                Flushed::Pending => {
                    if !want_write {
                        let _ = self.poller.modify(fd, token, true);
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.want_write = true;
                        }
                    }
                }
            }
        }

        fn close(&mut self, token: u64, cause: &str) {
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.poller.remove(conn.stream.as_raw_fd());
                self.conn_count.fetch_sub(1, Ordering::AcqRel);
                self.shared.metrics.conn_closed.inc(cause);
            }
        }

        /// Closes connections that stalled: readers idle past the read
        /// timeout get nothing (the slowloris contract — no response
        /// bytes, just a close), writers stuck past the write timeout are
        /// abandoned.
        fn sweep_timeouts(&mut self) {
            let now = Instant::now();
            let mut expired: Vec<(u64, &'static str)> = Vec::new();
            for (token, conn) in &self.conns {
                let idle = now.duration_since(conn.last_activity);
                if conn.out_pos < conn.outbuf.len() {
                    if idle > self.write_timeout {
                        expired.push((*token, "write_failed"));
                    }
                } else if idle > self.read_timeout {
                    expired.push((*token, "timeout"));
                }
            }
            for (token, cause) in expired {
                self.close(token, cause);
            }
        }

        /// Drain pass once shutdown begins: idle connections close now;
        /// anything mid-flush finishes first (its close is already
        /// scheduled by the `Connection: close` the response carried).
        fn drain(&mut self) {
            let idle: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, conn)| conn.outbuf.is_empty())
                .map(|(token, _)| *token)
                .collect();
            for token in idle {
                self.close(token, "drain");
            }
        }
    }

    /// Reads whatever the socket has, serves every complete request in
    /// the buffer (pipelining included), and returns a close cause when
    /// the connection is already finished (EOF or transport error) —
    /// `None` means keep it registered.
    fn fill_and_serve(shared: &Shared, limits: &Limits, conn: &mut Conn) -> Option<&'static str> {
        let mut chunk = [0u8; READ_CHUNK];
        let mut eof = false;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    if n < chunk.len() {
                        break; // short read: the socket is drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Some("error"),
            }
        }
        while !conn.close_after_flush {
            match parse_request_buffer(&conn.inbuf, limits) {
                Ok(Some((request, consumed))) => {
                    conn.inbuf.drain(..consumed);
                    serve_request(shared, conn, &request);
                }
                Ok(None) => break,
                Err(err) => {
                    let _ = reply_parse_error(&shared.metrics, &err, &mut conn.outbuf);
                    conn.close_after_flush = true;
                    conn.close_cause = "error";
                }
            }
        }
        if eof {
            if !conn.close_after_flush {
                conn.close_after_flush = true;
                // EOF mid-request is a transport fault; a clean hangup
                // between requests is just the client moving on.
                conn.close_cause = if conn.inbuf.is_empty() { "client" } else { "error" };
            }
            if conn.outbuf[conn.out_pos..].is_empty() {
                return Some(conn.close_cause); // nothing to flush: close now
            }
        }
        None
    }

    /// Routes one parsed request and appends the response — head and body
    /// assembled contiguously so the flush is a single `write`.
    fn serve_request(shared: &Shared, conn: &mut Conn, request: &HttpRequest) {
        let started = Instant::now();
        let (endpoint, status, reason, content_type, body) = route(shared, request);
        // Re-read after routing: `/v1/shutdown` flips the flag and its own
        // response must already carry `Connection: close`.
        let close = close_cause(request, status, shared.shutting_down.load(Ordering::SeqCst));
        // Record BEFORE the bytes leave: anyone who has seen the response
        // (e.g. a load generator cross-checking /metrics after its last
        // request) must also see its counters.
        shared.metrics.record(endpoint, status, started.elapsed().as_micros() as u64);
        append_response(&mut conn.outbuf, status, reason, content_type, &body, close.is_none());
        if let Some(cause) = close {
            conn.close_after_flush = true;
            conn.close_cause = cause;
        }
    }

    fn flush_conn(conn: &mut Conn) -> Flushed {
        while conn.out_pos < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
                Ok(0) => return Flushed::Failed,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flushed::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Flushed::Failed,
            }
        }
        conn.outbuf.clear();
        conn.out_pos = 0;
        Flushed::Done
    }
}

#[cfg(not(unix))]
mod imp {
    use super::{io, Arc, JoinHandle, ServeConfig, Shared, TcpListener};

    pub(crate) fn spawn(
        _shared: &Arc<Shared>,
        _listener: &TcpListener,
        _config: &ServeConfig,
    ) -> io::Result<Vec<JoinHandle<()>>> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "the event loop needs a unix target"))
    }
}
