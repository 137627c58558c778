//! The serving path of the node and the router: sharded nonblocking
//! event loops.
//!
//! `workers` shard threads each own a [`cp_runtime::net::Poller`], a slice
//! of connections, and a clone of the shared listener. On Linux the
//! listener is registered `EPOLLEXCLUSIVE` in every shard, so the kernel
//! wakes one shard per pending accept and no acceptor thread is needed;
//! under `poll(2)` every shard wakes and the losers' `accept` returns
//! `WouldBlock`.
//!
//! The accepting shard places each connection on the shard that owns the
//! fewest, the lowest-numbered on a tie. The choice depends only on those
//! counts, not on which shard the kernel woke, so it repeats from run to
//! run. When the target is another shard, the connection goes into that
//! shard's inbox and a byte onto its wake-up, a socket pair registered in
//! its own poller. That one hand-off is the only one: the connection lives
//! on its shard from then on. At shutdown a shard adopts its inbox before
//! it checks whether it has drained, and closes the inbox as it exits; a
//! hand-off that finds the inbox closed closes the connection with cause
//! `drain`.
//!
//! Each connection carries a read buffer feeding the incremental request
//! parser and a write buffer holding fully assembled responses (head +
//! body contiguous), flushed with single `write` calls. There are no
//! per-connection threads and no locks on the hot path: a request is read,
//! parsed, routed, recorded, and serialized entirely on its shard.
//!
//! What a request means is the [`Handler`]'s business: the node and the
//! router each implement it once, and everything else — placement,
//! admission, timeouts, parse errors, close causes, the shed answer and
//! the loop's metrics — is this module's, so both tiers serve alike. A
//! handler call that blocks, such as the router's proxied request or a
//! node's quorum write, holds its shard for that one call. On non-unix
//! targets [`spawn`] fails with `Unsupported`.

use std::borrow::Cow;
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::http::HttpRequest;
use crate::metrics::{Endpoint, ServiceMetrics};
use crate::server::ServeConfig;

/// A routed request: the endpoint it is recorded under, the status, the
/// content type and the body.
pub(crate) type Routed = (Endpoint, u16, Cow<'static, str>, Vec<u8>);

/// What the event loop serves: the node's state in `server` and the
/// router's in `router` each implement it once.
pub(crate) trait Handler: Send + Sync + 'static {
    /// State each shard keeps across requests, owned by its thread.
    type Shard: Default + Send;

    /// The registry the loop records requests and connections in.
    fn metrics(&self) -> &ServiceMetrics;

    /// Whether shutdown has begun: shards drain and exit.
    fn shutting_down(&self) -> bool;

    /// Answers one request.
    fn route(&self, shard: &mut Self::Shard, request: &HttpRequest) -> Routed;
}

/// Spawns one event-loop shard thread per `config.workers`, serving
/// `handler` on `listener`.
pub(crate) fn spawn<H: Handler>(
    handler: &Arc<H>,
    listener: &TcpListener,
    config: &ServeConfig,
) -> io::Result<Vec<JoinHandle<()>>> {
    imp::spawn(handler, listener, config)
}

#[cfg(unix)]
mod imp {
    use std::collections::HashMap;
    use std::io::{self, Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    use cp_runtime::net::{PollEvent, Poller};
    use cp_runtime::sync::Mutex;

    use super::Handler;
    use crate::http::{
        append_response, parse_request_buffer, reason, write_response, HttpError, HttpRequest,
        Limits,
    };
    use crate::metrics::{Endpoint, ServiceMetrics};
    use crate::server::{error_json, ServeConfig};

    /// The listener's registration token.
    const LISTENER_TOKEN: u64 = 0;

    /// The shard's wake-up registration token.
    const WAKE_TOKEN: u64 = 1;

    /// The first connection token.
    const FIRST_CONN_TOKEN: u64 = 2;

    /// Upper bound between housekeeping passes (timeout sweeps, drain
    /// checks): the loop wakes at least this often even when idle.
    const TICK: Duration = Duration::from_millis(100);

    /// Per-`read` chunk size; larger requests just take extra reads.
    const READ_CHUNK: usize = 16 * 1024;

    pub(crate) fn spawn<H: Handler>(
        handler: &Arc<H>,
        listener: &TcpListener,
        config: &ServeConfig,
    ) -> io::Result<Vec<JoinHandle<()>>> {
        let count = config.workers.max(1);
        let (links, wakes): (Vec<Link>, Vec<UnixStream>) =
            (0..count).map(|_| Link::new()).collect::<io::Result<Vec<_>>>()?.into_iter().unzip();
        let links: Arc<[Link]> = links.into();
        // Admission cap: `workers + queue_capacity` open connections. The
        // count is global so the cap holds whichever shard accepts.
        let max_conns = count + config.queue_capacity.max(1);
        let conn_count = Arc::new(AtomicUsize::new(0));
        // Build and register every shard before any thread spawns or the
        // listener changes mode, so a failure here leaves nothing running.
        let shards = wakes
            .into_iter()
            .enumerate()
            .map(|(index, wake)| {
                let shard = Shard {
                    handler: Arc::clone(handler),
                    state: H::Shard::default(),
                    listener: listener.try_clone()?,
                    poller: Poller::new()?,
                    index,
                    links: Arc::clone(&links),
                    wake,
                    conn_count: Arc::clone(&conn_count),
                    max_conns,
                    timeout: config.timeout,
                    limits: config.limits,
                    conns: HashMap::new(),
                    next_token: FIRST_CONN_TOKEN,
                    ready_reported: 0,
                };
                shard.poller.add_exclusive(shard.listener.as_raw_fd(), LISTENER_TOKEN)?;
                shard.poller.add(shard.wake.as_raw_fd(), WAKE_TOKEN, false)?;
                Ok(shard)
            })
            .collect::<io::Result<Vec<_>>>()?;
        // Nonblocking applies to the shared file description: every
        // shard's clone inherits it.
        listener.set_nonblocking(true)?;
        Ok(shards.into_iter().map(|shard| std::thread::spawn(move || shard.run())).collect())
    }

    /// What every shard can see of one shard: its load, and the way to
    /// hand it a connection.
    struct Link {
        /// Connections the shard owns, including ones handed to it but not
        /// yet registered. It only steers placement and publishes no other
        /// data, so it is read and written `Relaxed`.
        conns: AtomicUsize,
        /// Connections handed to the shard; `None` once it has exited.
        inbox: Mutex<Option<Vec<TcpStream>>>,
        /// Write end of the shard's wake-up; the read end is registered in
        /// the shard's own poller under [`WAKE_TOKEN`].
        waker: UnixStream,
    }

    impl Link {
        /// A link and the read end of its wake-up.
        fn new() -> io::Result<(Link, UnixStream)> {
            let (waker, wake) = UnixStream::pair()?;
            waker.set_nonblocking(true)?;
            wake.set_nonblocking(true)?;
            let link =
                Link { conns: AtomicUsize::new(0), inbox: Mutex::new(Some(Vec::new())), waker };
            Ok((link, wake))
        }

        /// Closes the inbox unless a hand-off landed since the shard last
        /// adopted; returns whether it closed.
        fn close_inbox(&self) -> bool {
            let mut inbox = self.inbox.lock();
            if inbox.as_ref().is_some_and(|streams| !streams.is_empty()) {
                return false;
            }
            *inbox = None;
            true
        }
    }

    /// Picks the shard for a new connection, the lowest index among those
    /// owning the fewest, and counts the connection there. The choice
    /// depends only on the counts, never on which shard accepted.
    fn place(links: &[Link]) -> usize {
        let target = links
            .iter()
            .enumerate()
            .min_by_key(|(_, link)| link.conns.load(Ordering::Relaxed))
            .map_or(0, |(index, _)| index);
        links[target].conns.fetch_add(1, Ordering::Relaxed);
        target
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

    struct Shard<H: Handler> {
        handler: Arc<H>,
        /// The handler's state for this shard.
        state: H::Shard,
        listener: TcpListener,
        poller: Poller,
        /// This shard's position in `links`.
        index: usize,
        links: Arc<[Link]>,
        /// Read end of this shard's wake-up.
        wake: UnixStream,
        conn_count: Arc<AtomicUsize>,
        max_conns: usize,
        timeout: Duration,
        limits: Limits,
        conns: HashMap<u64, Conn>,
        next_token: u64,
        /// This shard's share of the `ready_conns` gauge.
        ready_reported: i64,
    }

    impl<H: Handler> Shard<H> {
        fn run(mut self) {
            let mut events: Vec<PollEvent> = Vec::new();
            loop {
                events.clear();
                let timeout = TICK.min(self.timeout);
                let _ = self.poller.wait(&mut events, Some(timeout));
                self.handler.metrics().event_loop_wakeups.inc();
                let ready = events.iter().filter(|ev| ev.token >= FIRST_CONN_TOKEN).count();
                self.report_ready(ready as i64);
                for ev in events.iter().copied() {
                    match ev.token {
                        LISTENER_TOKEN => self.accept_burst(),
                        WAKE_TOKEN => self.adopt(),
                        _ => self.drive(ev),
                    }
                }
                self.sweep_timeouts();
                if self.handler.shutting_down() {
                    // Adopt first, so a connection handed over before the
                    // flag flipped is drained here rather than lost.
                    self.adopt();
                    self.drain();
                    if self.conns.is_empty() && self.links[self.index].close_inbox() {
                        break;
                    }
                }
            }
            self.report_ready(0);
        }

        /// Moves the `ready_conns` gauge by the change in this shard's
        /// share, so the gauge reads the sum over shards.
        fn report_ready(&mut self, ready: i64) {
            if ready != self.ready_reported {
                self.handler.metrics().ready_conns.add(ready - self.ready_reported);
                self.ready_reported = ready;
            }
        }

        /// Accepts until the backlog is empty (the listener is
        /// level-triggered, so anything left re-fires the next wait), and
        /// places each connection on the least loaded shard.
        fn accept_burst(&mut self) {
            loop {
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                };
                if self.handler.shutting_down() {
                    continue; // the shutdown wake-up self-connect, or a late arrival
                }
                self.handler.metrics().connections_total.inc();
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
                match place(&self.links) {
                    target if target == self.index => self.register(stream),
                    target => self.hand_off(target, stream),
                }
            }
        }

        /// Pushes a connection into another shard's inbox and wakes it. A
        /// shard that has already exited for shutdown gets nothing: the
        /// connection closes here, as that shard's drain would close it.
        fn hand_off(&self, target: usize, stream: TcpStream) {
            let link = &self.links[target];
            let mut inbox = link.inbox.lock();
            if let Some(streams) = inbox.as_mut() {
                streams.push(stream);
                // Written under the lock, so the target cannot exit in
                // between; `WouldBlock` means a wake-up is already pending.
                let _ = (&link.waker).write(&[1]);
            } else {
                self.release(target);
                self.handler.metrics().conn_closed.inc("drain");
            }
        }

        /// Registers every connection handed to this shard since the last
        /// call, after reading its wake-up dry.
        fn adopt(&mut self) {
            let mut sink = [0u8; 64];
            while matches!(self.wake.read(&mut sink), Ok(n) if n > 0) {}
            let handed = self.links[self.index].inbox.lock().as_mut().map(std::mem::take);
            for stream in handed.unwrap_or_default() {
                self.register(stream);
            }
        }

        /// Starts serving a connection this shard owns, whether it accepted
        /// it or adopted it.
        fn register(&mut self, stream: TcpStream) {
            let token = self.next_token;
            self.next_token += 1;
            if self.poller.add(stream.as_raw_fd(), token, false).is_err() {
                self.release(self.index);
                return;
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

        /// Uncounts a connection of shard `owner`, both there and against
        /// the admission cap.
        fn release(&self, owner: usize) {
            self.links[owner].conns.fetch_sub(1, Ordering::Relaxed);
            self.conn_count.fetch_sub(1, Ordering::AcqRel);
        }

        /// Over-capacity admission: answer `503` inline and drop. The
        /// just-accepted socket is still blocking, so the write needs no
        /// registration — it either lands in the socket buffer or the
        /// timeout gives up.
        fn shed(&self, mut stream: TcpStream) {
            let metrics = self.handler.metrics();
            metrics.rejected_total.inc();
            metrics.conn_closed.inc("shed");
            let _ = stream.set_write_timeout(Some(self.timeout));
            let body = error_json("server overloaded");
            let _ = write_response(&mut stream, 503, reason(503), "application/json", &body, false);
        }

        /// One readiness event on a connection: read + serve, then flush.
        fn drive(&mut self, ev: PollEvent) {
            let Some(conn) = self.conns.get_mut(&ev.token) else { return };
            if ev.readable && !conn.close_after_flush {
                let served = fill_and_serve(&*self.handler, &mut self.state, &self.limits, conn);
                if let Some(cause) = served {
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
                self.release(self.index);
                self.handler.metrics().conn_closed.inc(cause);
            }
        }

        /// Closes connections that stalled past the timeout: idle readers
        /// get nothing (the slowloris contract — no response bytes, just a
        /// close), and stuck writers are abandoned.
        fn sweep_timeouts(&mut self) {
            let now = Instant::now();
            let mut expired: Vec<(u64, &'static str)> = Vec::new();
            for (token, conn) in &self.conns {
                let idle = now.duration_since(conn.last_activity);
                if idle > self.timeout {
                    let stalled_write = conn.out_pos < conn.outbuf.len();
                    expired.push((*token, if stalled_write { "write_failed" } else { "timeout" }));
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
    fn fill_and_serve<H: Handler>(
        handler: &H,
        state: &mut H::Shard,
        limits: &Limits,
        conn: &mut Conn,
    ) -> Option<&'static str> {
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
                    serve_request(handler, state, conn, &request);
                }
                Ok(None) => break,
                Err(err) => {
                    reply_parse_error(handler.metrics(), &err, &mut conn.outbuf);
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
    fn serve_request<H: Handler>(
        handler: &H,
        state: &mut H::Shard,
        conn: &mut Conn,
        request: &HttpRequest,
    ) {
        let started = Instant::now();
        let (endpoint, status, content_type, body) = handler.route(state, request);
        // Re-read after routing: `/v1/shutdown` flips the flag and its own
        // response must already carry `Connection: close`.
        let close = close_cause(request, status, handler.shutting_down());
        // Record BEFORE the bytes leave: anyone who has seen the response
        // (e.g. a load generator cross-checking /metrics after its last
        // request) must also see its counters.
        handler.metrics().record(endpoint, status, started.elapsed().as_micros() as u64);
        let keep_alive = close.is_none();
        append_response(&mut conn.outbuf, status, reason(status), &content_type, &body, keep_alive);
        if let Some(cause) = close {
            conn.close_after_flush = true;
            conn.close_cause = cause;
        }
    }

    /// Answers a request that failed to parse and records it: `413` for a
    /// declared body over the cap, `400` otherwise. The connection closes
    /// after it with cause `error`, because framing may be lost.
    fn reply_parse_error(metrics: &ServiceMetrics, err: &HttpError, out: &mut Vec<u8>) {
        let (status, msg) = match err {
            HttpError::BodyTooLarge => (413, "body too large".to_string()),
            // Malformed / HeadTooLarge / BadVersion.
            _ => (400, err.to_string()),
        };
        metrics.record(Endpoint::Other, status, 0);
        append_response(out, status, reason(status), "application/json", &error_json(&msg), false);
    }

    /// Whether the response to `request` ends its connection, and under
    /// which `cp_conn_closed_total` cause; `None` keeps the connection
    /// alive.
    fn close_cause(request: &HttpRequest, status: u16, draining: bool) -> Option<&'static str> {
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

    #[cfg(test)]
    mod tests {
        use super::{place, Link, TcpListener, TcpStream};
        use std::sync::atomic::Ordering;

        fn links(count: usize) -> Vec<Link> {
            (0..count).map(|_| Link::new().unwrap().0).collect()
        }

        #[test]
        fn placement_picks_the_lowest_index_among_the_least_loaded() {
            let links = links(4);
            // All tied: lowest index first. A hand-off counts before the
            // target registers it, so back-to-back picks spread.
            let picks: Vec<usize> = (0..6).map(|_| place(&links)).collect();
            assert_eq!(picks, [0, 1, 2, 3, 0, 1]);
            // Counts [2, 2, 1, 1]: shards 2 and 3 tie, and 2 wins.
            assert_eq!(place(&links), 2);
            assert_eq!(place(&links), 3);
            // A close on shard 1 makes it the only least loaded one.
            links[1].conns.fetch_sub(1, Ordering::Relaxed);
            assert_eq!(place(&links), 1);
            let counts: Vec<usize> =
                links.iter().map(|link| link.conns.load(Ordering::Relaxed)).collect();
            assert_eq!(counts, [2, 2, 2, 2]);
        }

        #[test]
        fn inbox_stays_open_while_a_hand_off_is_pending() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let (link, _wake) = Link::new().unwrap();
            let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            link.inbox.lock().as_mut().unwrap().push(stream);
            assert!(!link.close_inbox(), "a pending hand-off keeps the shard running");
            assert_eq!(link.inbox.lock().as_mut().map(std::mem::take).unwrap().len(), 1);
            assert!(link.close_inbox());
            assert!(link.inbox.lock().is_none(), "a closed inbox refuses later hand-offs");
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use super::{io, Arc, Handler, JoinHandle, ServeConfig, TcpListener};

    pub(crate) fn spawn<H: Handler>(
        _handler: &Arc<H>,
        _listener: &TcpListener,
        _config: &ServeConfig,
    ) -> io::Result<Vec<JoinHandle<()>>> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "the event loop needs a unix target"))
    }
}
