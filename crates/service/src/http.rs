//! A small, strict HTTP/1.1 wire layer over `std::io` streams.
//!
//! One buffered [`HttpConn`] wraps a connection and yields parsed
//! [`HttpRequest`]s (server side) or [`HttpResponse`]s (client side). The
//! parser is incremental — it tolerates arbitrary read fragmentation and
//! pipelined messages — and bounded: head and body sizes are capped by
//! [`Limits`], and every malformed input maps to a typed [`HttpError`]
//! rather than a panic.
//!
//! Supported surface, deliberately 2007-sized like the rest of the repo:
//! `Content-Length` bodies only (no chunked transfer coding), obsolete
//! header line folding accepted on input, `Connection: keep-alive/close`
//! semantics for HTTP/1.1 and 1.0.

use std::io::{Read, Write};

use cp_net::HeaderMap;

/// Size caps enforced while reading a message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum body bytes (`Content-Length` beyond this → [`HttpError::BodyTooLarge`]).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_head_bytes: 16 * 1024, max_body_bytes: 1024 * 1024 }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target (origin form, e.g. `/v1/classify`).
    pub target: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Request headers (names lower-cased by [`HeaderMap`]).
    pub headers: HeaderMap,
    /// Request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Whether the connection should stay open after this request.
    pub fn keep_alive(&self) -> bool {
        match self.headers.get("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// A parsed response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response headers.
    pub headers: HeaderMap,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The body as UTF-8 text (lossy).
    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Why reading a message failed.
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF before the first byte of a message — the peer closed an
    /// idle keep-alive connection. Not an error in any meaningful sense.
    Closed,
    /// The message violated the grammar (→ `400 Bad Request`).
    Malformed(&'static str),
    /// Head exceeded [`Limits::max_head_bytes`] (→ `431`-ish; served as 400).
    HeadTooLarge,
    /// Declared `Content-Length` exceeded [`Limits::max_body_bytes`]
    /// (→ `413 Payload Too Large`).
    BodyTooLarge,
    /// An HTTP version other than 1.0/1.1 (→ `505`; served as 400).
    BadVersion,
    /// Transport error (timeout, reset). The connection is unusable.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Malformed(why) => write!(f, "malformed message: {why}"),
            HttpError::HeadTooLarge => write!(f, "message head too large"),
            HttpError::BodyTooLarge => write!(f, "message body too large"),
            HttpError::BadVersion => write!(f, "unsupported HTTP version"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A buffered HTTP connection (either direction).
///
/// Bytes left over after one message (pipelining) are retained for the
/// next call.
#[derive(Debug)]
pub struct HttpConn<S> {
    stream: S,
    buf: Vec<u8>,
    /// Bytes `buf[..filled]` are valid; `buf[consumed..filled]` unread.
    consumed: usize,
    filled: usize,
    limits: Limits,
}

const CRLF2: &[u8] = b"\r\n\r\n";

impl<S> HttpConn<S> {
    /// Wraps a stream with the given limits.
    pub fn new(stream: S, limits: Limits) -> Self {
        HttpConn { stream, buf: vec![0; 8 * 1024], consumed: 0, filled: 0, limits }
    }

    /// The wrapped stream (for writing responses/requests).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Whether unread bytes are already buffered (a pipelined message).
    pub fn has_buffered(&self) -> bool {
        self.consumed < self.filled
    }
}

impl<S: Read> HttpConn<S> {
    /// Pulls more bytes from the stream; `Ok(0)` means EOF.
    fn fill(&mut self) -> std::io::Result<usize> {
        // Compact or grow so there is always read headroom.
        if self.consumed > 0 && (self.filled == self.buf.len() || self.consumed == self.filled) {
            self.buf.copy_within(self.consumed..self.filled, 0);
            self.filled -= self.consumed;
            self.consumed = 0;
        }
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.stream.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Reads until the head terminator (`\r\n\r\n`) is buffered; returns
    /// the head's byte length including the terminator.
    fn read_head(&mut self) -> Result<usize, HttpError> {
        let mut scanned = 0usize;
        loop {
            let window = &self.buf[self.consumed..self.filled];
            if let Some(pos) = find(&window[scanned.saturating_sub(3)..], CRLF2) {
                let head_len = scanned.saturating_sub(3) + pos + CRLF2.len();
                if head_len > self.limits.max_head_bytes {
                    return Err(HttpError::HeadTooLarge);
                }
                return Ok(head_len);
            }
            scanned = window.len();
            if scanned > self.limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge);
            }
            match self.fill() {
                Ok(0) if scanned == 0 => return Err(HttpError::Closed),
                Ok(0) => return Err(HttpError::Malformed("eof inside message head")),
                Ok(_) => {}
                Err(e) => {
                    return if scanned == 0 && is_clean_close(&e) {
                        Err(HttpError::Closed)
                    } else {
                        Err(HttpError::Io(e))
                    }
                }
            }
        }
    }

    /// Reads exactly `len` body bytes (already partially buffered or not).
    fn read_body(&mut self, len: usize) -> Result<Vec<u8>, HttpError> {
        while self.filled - self.consumed < len {
            match self.fill() {
                Ok(0) => return Err(HttpError::Malformed("eof inside message body")),
                Ok(_) => {}
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
        let body = self.buf[self.consumed..self.consumed + len].to_vec();
        self.consumed += len;
        Ok(body)
    }

    /// Reads one request (server side).
    pub fn read_request(&mut self) -> Result<HttpRequest, HttpError> {
        let head_len = self.read_head()?;
        let head = &self.buf[self.consumed..self.consumed + head_len - CRLF2.len()];
        let head = std::str::from_utf8(head).map_err(|_| HttpError::Malformed("non-utf8 head"))?;
        let (method, target, http11, headers) = parse_request_head(head)?;
        self.consumed += head_len;

        let body = match content_length(&headers)? {
            Some(len) if len > self.limits.max_body_bytes => return Err(HttpError::BodyTooLarge),
            Some(len) => self.read_body(len)?,
            None if headers.contains("transfer-encoding") => {
                return Err(HttpError::Malformed("transfer codings not supported"))
            }
            None => Vec::new(),
        };
        Ok(HttpRequest { method, target, http11, headers, body })
    }

    /// Reads one response (client side).
    pub fn read_response(&mut self) -> Result<HttpResponse, HttpError> {
        let head_len = self.read_head()?;
        let head = &self.buf[self.consumed..self.consumed + head_len - CRLF2.len()];
        let head = std::str::from_utf8(head).map_err(|_| HttpError::Malformed("non-utf8 head"))?;
        let mut lines = unfold_lines(head)?;
        let status_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
        let mut parts = status_line.splitn(3, ' ');
        match parts.next() {
            Some("HTTP/1.1" | "HTTP/1.0") => {}
            _ => return Err(HttpError::BadVersion),
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(HttpError::Malformed("bad status code"))?;
        let headers = parse_headers(lines)?;
        self.consumed += head_len;
        let body = match content_length(&headers)? {
            Some(len) if len > self.limits.max_body_bytes => return Err(HttpError::BodyTooLarge),
            Some(len) => self.read_body(len)?,
            None => Vec::new(),
        };
        Ok(HttpResponse { status, headers, body })
    }
}

/// Parses a request head (request line + headers, no trailing CRLFCRLF)
/// into `(method, target, http11, headers)`.
fn parse_request_head(head: &str) -> Result<(String, String, bool, HeaderMap), HttpError> {
    let mut lines = unfold_lines(head)?;
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts.next().ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts.next().ok_or(HttpError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra tokens in request line"));
    }
    if method.is_empty() || !method.bytes().all(is_token_byte) {
        return Err(HttpError::Malformed("invalid method token"));
    }
    if target.is_empty() || target.contains(char::is_whitespace) {
        return Err(HttpError::Malformed("invalid request target"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::BadVersion),
    };
    let method = method.to_string();
    let target = target.to_string();
    let headers = parse_headers(lines)?;
    Ok((method, target, http11, headers))
}

/// Tries to parse one complete request from the front of `buf` without
/// doing any I/O — the entry point for nonblocking event loops that own
/// their read buffers.
///
/// Returns `Ok(None)` when more bytes are needed, and
/// `Ok(Some((request, consumed)))` when a full message (head + declared
/// body) is buffered; the caller drains `consumed` bytes. Limit
/// violations are detected as early as possible: an unterminated head
/// longer than `max_head_bytes` and a declared `Content-Length` over
/// `max_body_bytes` both fail before the rest of the message arrives.
pub fn parse_request_buffer(
    buf: &[u8],
    limits: &Limits,
) -> Result<Option<(HttpRequest, usize)>, HttpError> {
    let head_len = match find(buf, CRLF2) {
        Some(pos) => pos + CRLF2.len(),
        None if buf.len() > limits.max_head_bytes => return Err(HttpError::HeadTooLarge),
        None => return Ok(None),
    };
    if head_len > limits.max_head_bytes {
        return Err(HttpError::HeadTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_len - CRLF2.len()])
        .map_err(|_| HttpError::Malformed("non-utf8 head"))?;
    let (method, target, http11, headers) = parse_request_head(head)?;
    let body_len = match content_length(&headers)? {
        Some(len) if len > limits.max_body_bytes => return Err(HttpError::BodyTooLarge),
        Some(len) => len,
        None if headers.contains("transfer-encoding") => {
            return Err(HttpError::Malformed("transfer codings not supported"))
        }
        None => 0,
    };
    if buf.len() < head_len + body_len {
        return Ok(None);
    }
    let body = buf[head_len..head_len + body_len].to_vec();
    Ok(Some((HttpRequest { method, target, http11, headers, body }, head_len + body_len)))
}

/// The reason phrase for a status the service answers with; `"Status"`
/// for any other.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// Serializes a response message onto `out` — head and body in one
/// contiguous buffer, so the caller can flush it in a single write.
/// `Content-Length` and `Connection` are always emitted.
pub fn append_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    out.reserve(head.len() + content_type.len() + 18 + body.len());
    out.extend_from_slice(head.as_bytes());
    if !body.is_empty() || !content_type.is_empty() {
        out.extend_from_slice(b"Content-Type: ");
        out.extend_from_slice(content_type.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Writes a response message as one pre-assembled buffer — status line,
/// headers, and body land in a single `write_all` (one syscall on an
/// unwrapped socket).
pub fn write_response(
    out: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut wire = Vec::with_capacity(128 + body.len());
    append_response(&mut wire, status, reason, content_type, body, keep_alive);
    out.write_all(&wire)?;
    out.flush()
}

/// Writes a request message (client side) as one pre-assembled buffer. A
/// `Content-Length` is emitted whenever a body is present.
pub fn write_request(
    out: &mut impl Write,
    method: &str,
    target: &str,
    host: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut wire = Vec::new();
    append_request(&mut wire, method, target, host, body);
    out.write_all(&wire)?;
    out.flush()
}

/// Appends a request message — request line, headers, body — to `out`.
/// The multi-connection loadgen clears and reuses one buffer across
/// requests, so the steady-state send path allocates nothing.
pub fn append_request(out: &mut Vec<u8>, method: &str, target: &str, host: &str, body: &[u8]) {
    out.reserve(method.len() + target.len() + host.len() + body.len() + 96);
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: ");
    out.extend_from_slice(host.as_bytes());
    out.extend_from_slice(b"\r\n");
    if !body.is_empty() {
        out.extend_from_slice(b"Content-Length: ");
        let _ = write!(out, "{}", body.len());
        out.extend_from_slice(b"\r\nContent-Type: application/json\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Splits a message head into logical lines, unfolding obsolete line
/// folding (continuation lines starting with SP/HTAB join their
/// predecessor).
fn unfold_lines(head: &str) -> Result<impl Iterator<Item = String>, HttpError> {
    let mut logical: Vec<String> = Vec::new();
    for raw in head.split("\r\n") {
        if raw.starts_with(' ') || raw.starts_with('\t') {
            match logical.last_mut() {
                // obs-fold: the CRLF + leading whitespace collapses to one SP.
                Some(prev) if !prev.is_empty() => {
                    prev.push(' ');
                    prev.push_str(raw.trim_start_matches([' ', '\t']));
                }
                _ => return Err(HttpError::Malformed("continuation before first header")),
            }
        } else {
            logical.push(raw.to_string());
        }
    }
    Ok(logical.into_iter())
}

fn parse_headers(lines: impl Iterator<Item = String>) -> Result<HeaderMap, HttpError> {
    let mut headers = HeaderMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) =
            line.split_once(':').ok_or(HttpError::Malformed("header without colon"))?;
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpError::Malformed("invalid header name"));
        }
        headers.append(name, value.trim().to_string());
    }
    Ok(headers)
}

fn content_length(headers: &HeaderMap) -> Result<Option<usize>, HttpError> {
    let all = headers.get_all("content-length");
    match all.as_slice() {
        [] => Ok(None),
        [one] => one
            .parse::<usize>()
            .map(Some)
            .map_err(|_| HttpError::Malformed("invalid content-length")),
        _ => Err(HttpError::Malformed("duplicate content-length")),
    }
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

fn is_clean_close(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
    )
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn conn(bytes: &[u8]) -> HttpConn<Cursor<Vec<u8>>> {
        HttpConn::new(Cursor::new(bytes.to_vec()), Limits::default())
    }

    #[test]
    fn parses_simple_get() {
        let mut c = conn(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        let req = c.read_request().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert!(req.http11);
        assert!(req.keep_alive());
        assert_eq!(req.headers.get("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(matches!(c.read_request(), Err(HttpError::Closed)));
    }

    #[test]
    fn parses_post_with_body() {
        let mut c = conn(b"POST /v1/visit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        let req = c.read_request().unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn pipelined_requests() {
        let mut c = conn(
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nxyGET /c HTTP/1.1\r\n\r\n",
        );
        assert_eq!(c.read_request().unwrap().target, "/a");
        let b = c.read_request().unwrap();
        assert_eq!((b.target.as_str(), b.body.as_slice()), ("/b", b"xy".as_slice()));
        assert_eq!(c.read_request().unwrap().target, "/c");
        assert!(matches!(c.read_request(), Err(HttpError::Closed)));
    }

    #[test]
    fn header_folding_unfolds() {
        let mut c =
            conn(b"GET / HTTP/1.1\r\nX-Long: part one\r\n\tpart two\r\n  part three\r\n\r\n");
        let req = c.read_request().unwrap();
        assert_eq!(req.headers.get("x-long"), Some("part one part two part three"));
    }

    #[test]
    fn keep_alive_semantics() {
        let mut c = conn(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!c.read_request().unwrap().keep_alive(), "1.0 defaults to close");
        let mut c = conn(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(c.read_request().unwrap().keep_alive());
        let mut c = conn(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!c.read_request().unwrap().keep_alive());
    }

    #[test]
    fn malformed_inputs_rejected() {
        for (bytes, why) in [
            (b"GARBAGE\r\n\r\n".as_slice(), "one-token request line"),
            (b"GET /\r\n\r\n".as_slice(), "missing version"),
            (b"GET / HTTP/2.0\r\n\r\n".as_slice(), "bad version"),
            (b"GET / HTTP/1.1 extra\r\n\r\n".as_slice(), "extra token"),
            (b"G@T / HTTP/1.1\r\n\r\n".as_slice(), "bad method"),
            (b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n".as_slice(), "colonless header"),
            (b"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n".as_slice(), "space in name"),
            (b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n".as_slice(), "bad CL"),
            (
                b"GET / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab".as_slice(),
                "dup CL",
            ),
            (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".as_slice(), "chunked"),
            (b" GET / HTTP/1.1\r\n\r\n".as_slice(), "leading fold"),
            (b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort".as_slice(), "truncated body"),
        ] {
            let got = conn(bytes).read_request();
            assert!(
                matches!(got, Err(HttpError::Malformed(_) | HttpError::BadVersion)),
                "{why}: {got:?}"
            );
        }
    }

    #[test]
    fn oversize_body_and_head() {
        let limits = Limits { max_head_bytes: 64, max_body_bytes: 10 };
        let mut c = HttpConn::new(
            Cursor::new(b"POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\n0123456789X".to_vec()),
            limits,
        );
        assert!(matches!(c.read_request(), Err(HttpError::BodyTooLarge)));
        let big = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(200));
        let mut c = HttpConn::new(Cursor::new(big.into_bytes()), limits);
        assert!(matches!(c.read_request(), Err(HttpError::HeadTooLarge)));
    }

    #[test]
    fn response_round_trip() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "OK", "application/json", b"{\"ok\":true}", true).unwrap();
        let mut c = conn(&wire);
        let resp = c.read_response().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_string(), "{\"ok\":true}");
        assert_eq!(resp.headers.get("connection"), Some("keep-alive"));
    }

    #[test]
    fn request_writer_round_trip() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/v1/visit", "127.0.0.1", b"{}").unwrap();
        let req = conn(&wire).read_request().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/visit");
        assert_eq!(req.headers.get("host"), Some("127.0.0.1"));
        assert_eq!(req.body, b"{}");
    }

    /// A sink that counts how many `write` calls reach the transport —
    /// the stand-in for a socket when pinning syscall counts.
    #[derive(Default)]
    struct CountingStream {
        data: Vec<u8>,
        writes: usize,
        flushes: usize,
    }

    impl Write for CountingStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.data.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn response_head_and_body_land_in_one_write() {
        let mut sink = CountingStream::default();
        write_response(&mut sink, 200, "OK", "application/json", b"{\"n\":42}", true).unwrap();
        assert_eq!(sink.writes, 1, "head+body must be pre-assembled into a single write");
        let resp = conn(&sink.data).read_response().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_string(), "{\"n\":42}");

        let mut sink = CountingStream::default();
        write_request(&mut sink, "POST", "/v1/classify", "h", b"{}").unwrap();
        assert_eq!(sink.writes, 1, "request writer gets the same single-write treatment");
    }

    #[test]
    fn every_status_the_service_sends_has_its_reason_phrase() {
        for (status, phrase) in [
            (200, "OK"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (409, "Conflict"),
            (413, "Payload Too Large"),
            (503, "Service Unavailable"),
        ] {
            assert_eq!(reason(status), phrase);
        }
        assert_eq!(reason(418), "Status");
    }

    #[test]
    fn append_response_matches_write_response_bytes() {
        let mut wire = Vec::new();
        write_response(&mut wire, 404, "Not Found", "text/plain", b"nope", false).unwrap();
        let mut appended = Vec::new();
        append_response(&mut appended, 404, "Not Found", "text/plain", b"nope", false);
        assert_eq!(wire, appended);
    }

    #[test]
    fn buffer_parser_handles_incremental_arrival() {
        let wire = b"POST /v1/visit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..wire.len() {
            let got = parse_request_buffer(&wire[..cut], &Limits::default()).unwrap();
            assert!(got.is_none(), "prefix of {cut} bytes must ask for more");
        }
        let (req, consumed) = parse_request_buffer(wire, &Limits::default()).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn buffer_parser_leaves_pipelined_tail_unconsumed() {
        let wire = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (first, consumed) = parse_request_buffer(wire, &Limits::default()).unwrap().unwrap();
        assert_eq!(first.target, "/a");
        let (second, rest) =
            parse_request_buffer(&wire[consumed..], &Limits::default()).unwrap().unwrap();
        assert_eq!(second.target, "/b");
        assert_eq!(consumed + rest, wire.len());
    }

    #[test]
    fn buffer_parser_rejects_limits_early() {
        let limits = Limits { max_head_bytes: 64, max_body_bytes: 8 };
        // Unterminated head growing past the cap fails before CRLFCRLF.
        let garbage = vec![b'a'; 65];
        assert!(matches!(parse_request_buffer(&garbage, &limits), Err(HttpError::HeadTooLarge)));
        // Declared oversize body fails without waiting for the payload.
        let head = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
        assert!(matches!(parse_request_buffer(head, &limits), Err(HttpError::BodyTooLarge)));
        // Malformed heads fail as soon as the head is complete.
        let bad = b"NOT-HTTP\r\n\r\n";
        assert!(matches!(
            parse_request_buffer(bad, &Limits::default()),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn buffer_parser_agrees_with_streaming_parser() {
        let mut rng = StdRng::seed_from_u64(0x1DEA);
        for _ in 0..200 {
            let (expected, wire) = random_request(&mut rng);
            let (got, consumed) = parse_request_buffer(&wire, &Limits::default()).unwrap().unwrap();
            assert_eq!(got, expected);
            assert_eq!(consumed, wire.len());
        }
    }

    /// A reader that hands out the wire bytes in caller-chosen fragments,
    /// exercising every partial-read path in the parser.
    struct Fragmented {
        data: Vec<u8>,
        cuts: Vec<usize>,
        pos: usize,
        next_cut: usize,
    }

    impl Read for Fragmented {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            let chunk_end = self
                .cuts
                .get(self.next_cut)
                .copied()
                .unwrap_or(self.data.len())
                .clamp(self.pos + 1, self.data.len());
            self.next_cut += 1;
            let n = (chunk_end - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    // ---- randomized property tests (seeded cp-runtime RNG) ----

    use cp_runtime::rng::{Rng, SeedableRng, StdRng};

    fn random_token(rng: &mut StdRng, len: usize) -> String {
        const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
        (0..len).map(|_| ALPHA[rng.gen_range(0..ALPHA.len())] as char).collect()
    }

    /// Builds a random (but valid) request and its wire form, with random
    /// header folding.
    fn random_request(rng: &mut StdRng) -> (HttpRequest, Vec<u8>) {
        let method = ["GET", "POST", "HEAD", "PUT"][rng.gen_range(0..4)].to_string();
        let target_len = rng.gen_range(1..12);
        let target = format!("/{}", random_token(rng, target_len));
        let mut wire = format!("{method} {target} HTTP/1.1\r\n");
        let mut headers = HeaderMap::new();
        for _ in 0..rng.gen_range(0..6usize) {
            let name_len = rng.gen_range(1..8);
            let name = format!("x-{}", random_token(rng, name_len));
            if rng.gen_range(0..4usize) == 0 {
                // Folded header: two fragments joined by obs-fold.
                let (a_len, b_len) = (rng.gen_range(1..10), rng.gen_range(1..10));
                let a = random_token(rng, a_len);
                let b = random_token(rng, b_len);
                let pad = if rng.gen_range(0..2usize) == 0 { " " } else { "\t" };
                wire.push_str(&format!("{name}: {a}\r\n{pad}{b}\r\n"));
                headers.append(&name, format!("{a} {b}"));
            } else {
                let v_len = rng.gen_range(0..16);
                let v = random_token(rng, v_len);
                wire.push_str(&format!("{name}: {v}\r\n"));
                headers.append(&name, v);
            }
        }
        let body: Vec<u8> = if rng.gen_range(0..2usize) == 0 {
            (0..rng.gen_range(0..400usize)).map(|_| rng.gen_range(0..=255u64) as u8).collect()
        } else {
            Vec::new()
        };
        if !body.is_empty() {
            wire.push_str(&format!("Content-Length: {}\r\n", body.len()));
            headers.append("content-length", body.len().to_string());
        }
        wire.push_str("\r\n");
        let mut wire = wire.into_bytes();
        wire.extend_from_slice(&body);
        (HttpRequest { method, target, http11: true, headers, body }, wire)
    }

    #[test]
    fn prop_random_requests_survive_any_fragmentation() {
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        for _ in 0..200 {
            let (expected, wire) = random_request(&mut rng);
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..8usize))
                .map(|_| rng.gen_range(1..wire.len().max(2)))
                .collect();
            cuts.sort_unstable();
            let reader = Fragmented { data: wire, cuts, pos: 0, next_cut: 0 };
            let mut c = HttpConn::new(reader, Limits::default());
            let got = c.read_request().expect("valid request must parse");
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn prop_pipelined_keepalive_sequences_parse_in_order() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..50 {
            let n = rng.gen_range(2..6usize);
            let mut expected = Vec::with_capacity(n);
            let mut wire = Vec::new();
            for _ in 0..n {
                let (req, bytes) = random_request(&mut rng);
                expected.push(req);
                wire.extend_from_slice(&bytes);
            }
            let mut cuts: Vec<usize> =
                (0..rng.gen_range(0..12usize)).map(|_| rng.gen_range(1..wire.len())).collect();
            cuts.sort_unstable();
            let reader = Fragmented { data: wire, cuts, pos: 0, next_cut: 0 };
            let mut c = HttpConn::new(reader, Limits::default());
            for want in &expected {
                let got = c.read_request().expect("pipelined request must parse");
                assert_eq!(&got, want);
            }
            assert!(matches!(c.read_request(), Err(HttpError::Closed)));
        }
    }

    #[test]
    fn prop_truncated_heads_never_panic() {
        let mut rng = StdRng::seed_from_u64(0x7A57E);
        for _ in 0..200 {
            let (_, wire) = random_request(&mut rng);
            let cut = rng.gen_range(0..wire.len());
            let mut c = conn(&wire[..cut]);
            // Any outcome is fine as long as it is an Err or a prefix-valid
            // request — the parser must never panic on truncation.
            let _ = c.read_request();
        }
    }
}
