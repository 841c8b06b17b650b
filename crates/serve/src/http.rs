//! The HTTP/1.1 wire layer: the client connection [`ServeClient`] talks
//! through, and the codec the reactor front serves with.
//!
//! The build environment has no registry access, so — following the
//! `crates/compat` precedent — the service carries its own wire layer
//! instead of hyper/axum. It implements exactly what `dominod`, the
//! `dominogw` gateway and their clients need and nothing more:
//!
//! * [`RequestParser`]: incremental request parsing — request line,
//!   headers, `Content-Length` bodies (bounded by [`MAX_BODY_BYTES`]),
//!   query-string splitting — over whatever bytes a socket delivered;
//! * [`render_response`] and the chunk renderers: the exact response
//!   bytes, fixed-length with `Connection: keep-alive` / `close`, or
//!   `Transfer-Encoding: chunked` for the `/jobs/:id/events` stream
//!   (chunked responses always close);
//! * [`HttpConnection`]: the client side, one TCP stream with a
//!   persistent read buffer, including a streaming chunk decoder that
//!   yields line-delimited event records as they arrive.
//!
//! Requests and responses share one set of header rules: at most
//! [`MAX_HEADERS`] headers of at most [`MAX_LINE_BYTES`] each, names
//! lowercased, `Content-Length` at most [`MAX_BODY_BYTES`].
//!
//! # Keep-alive and pipelining
//!
//! A connection carries many requests back to back, and clients may
//! pipeline. [`HttpFront`](crate::front::HttpFront) runs this state
//! machine per connection from its reactor over a [`RequestParser`],
//! answering strictly in request order and parsing the next request only
//! after the current one is answered — so a peer can never force the
//! server to hold more than one parsed request in memory:
//!
//! ```text
//!          ┌────────────── idle (timer = idle_timeout) ────────────────┐
//!          ▼                                                           │
//!   next request ──▶ parsed ──▶ handler answers ──▶ keep-alive? ───────┘
//!          │
//!          ├─ EOF, or idle timeout (even mid-request) ─▶ close
//!          ├─ malformed ─▶ 400 + close
//!          └─ request #max_requests, Connection: close, or a
//!             streaming handler ─▶ final response carries close
//! ```
//!
//! No TLS, no compression, no `Expect: 100-continue`.
//!
//! [`ServeClient`]: crate::ServeClient

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on accepted request/response bodies (16 MiB). Inline BLIF
/// sources for the suite circuits are a few hundred KiB at most; anything
/// larger is a malformed or hostile request and is rejected before it can
/// balloon server memory.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Upper bound on any single protocol line (request/status line, one
/// header, a chunk-size line). Like the body bound, this is enforced
/// *while reading*: a peer streaming an endless newline-free line is cut
/// off here, not at OOM.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Upper bound on the number of headers per message.
pub const MAX_HEADERS: usize = 128;

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] bytes.
/// Returns `Ok(None)` on a clean EOF before any byte.
fn read_line_bounded(reader: &mut impl BufRead, what: &str) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = reader
        .by_ref()
        .take((MAX_LINE_BYTES + 1) as u64)
        .read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(bad(&format!("{what} line too long")));
    }
    Ok(Some(line))
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, `DELETE`, ...), uppercased.
    pub method: String,
    /// Decoded path without the query string (`/jobs/42`).
    pub path: String,
    /// Query parameters in order of appearance (`?wait=1`).
    pub query: Vec<(String, String)>,
    /// Headers as `(lowercased-name, value)` pairs, in order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` when the query string asks for long-poll/blocking behaviour
    /// (`?wait=1` or `?wait=true`).
    pub fn wants_wait(&self) -> bool {
        matches!(self.query_param("wait"), Some("1") | Some("true"))
    }

    /// First value of the (case-insensitively matched) header `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Splits a `/jobs/42[/tail]` path into the job id and the tail
    /// (`""`, `"result"`, `"events"`, ...).
    pub fn job_path(&self) -> Option<(u64, &str)> {
        let rest = self.path.strip_prefix("/jobs/")?;
        let (id, tail) = rest.split_once('/').unwrap_or((rest, ""));
        Some((id.parse().ok()?, tail))
    }

    /// `true` when the request asks the server to close after responding.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The original request target (`path?query`), reassembled — what a
    /// proxy forwards verbatim.
    pub fn target(&self) -> String {
        if self.query.is_empty() {
            return self.path.clone();
        }
        let qs: Vec<String> = self
            .query
            .iter()
            .map(|(k, v)| {
                if v.is_empty() {
                    k.clone()
                } else {
                    format!("{k}={v}")
                }
            })
            .collect();
        format!("{}?{}", self.path, qs.join("&"))
    }
}

/// The client side of one HTTP/1.1 connection, with a persistent read
/// buffer so a kept-alive connection carries many exchanges.
#[derive(Debug)]
pub struct HttpConnection {
    reader: BufReader<TcpStream>,
}

impl HttpConnection {
    /// Wraps a connected stream.
    ///
    /// Disables Nagle's algorithm: every message here is written as one
    /// complete buffer, so coalescing only adds delayed-ACK stalls
    /// (~40ms per message) to keep-alive request/response cadence.
    pub fn new(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        HttpConnection {
            reader: BufReader::new(stream),
        }
    }

    /// Sets the read timeout of the exchanges that follow; `None` waits
    /// without bound.
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Writes one request and flushes it.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the underlying writes.
    pub fn write_request(
        &mut self,
        host: &str,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        keep_alive: bool,
    ) -> io::Result<()> {
        let stream = self.reader.get_mut();
        let body = body.unwrap_or(&[]);
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: {}\r\n\r\n",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        let mut message = head.into_bytes();
        message.extend_from_slice(body);
        stream.write_all(&message)?;
        stream.flush()
    }

    /// Reads a complete response, reassembling chunked
    /// bodies.
    ///
    /// # Errors
    ///
    /// [`io::Error`] for connection failures or malformed responses.
    pub fn read_response(&mut self) -> io::Result<Response> {
        self.read_response_streaming(|_| {})
    }

    /// Reads a response, invoking `on_chunk` for every chunk of a chunked
    /// body as it arrives (fixed-length bodies get a single callback).
    /// The complete body is still returned.
    ///
    /// # Errors
    ///
    /// [`io::Error`] for connection failures or malformed responses.
    pub fn read_response_streaming(
        &mut self,
        mut on_chunk: impl FnMut(&[u8]),
    ) -> io::Result<Response> {
        let reader = &mut self.reader;
        let Some(line) = read_line_bounded(reader, "status")? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                ClosedBeforeResponse,
            ));
        };
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;

        let ParsedHeaders {
            headers,
            content_length,
            chunked,
        } = read_headers(reader)?;

        let mut body = Vec::new();
        if chunked {
            loop {
                let Some(size_line) = read_line_bounded(reader, "chunk size")? else {
                    return Err(bad("connection closed inside chunked body"));
                };
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| bad("malformed chunk size"))?;
                // Checked form: a hostile size near usize::MAX must hit
                // this bound, not wrap the addition and then fail to
                // allocate.
                if size > MAX_BODY_BYTES - body.len() {
                    return Err(bad("response body too large"));
                }
                let mut chunk = vec![0u8; size];
                reader.read_exact(&mut chunk)?;
                let mut crlf = [0u8; 2];
                reader.read_exact(&mut crlf)?;
                if size == 0 {
                    break;
                }
                on_chunk(&chunk);
                body.extend_from_slice(&chunk);
            }
        } else {
            match content_length {
                Some(n) => {
                    body.resize(n, 0);
                    reader.read_exact(&mut body)?;
                }
                None => {
                    // Read to EOF (connection: close framing) — through a
                    // `take` so a peer streaming forever is cut off at the
                    // bound, not at OOM.
                    reader
                        .by_ref()
                        .take((MAX_BODY_BYTES + 1) as u64)
                        .read_to_end(&mut body)?;
                    if body.len() > MAX_BODY_BYTES {
                        return Err(bad("response body too large"));
                    }
                }
            }
            if !body.is_empty() {
                on_chunk(&body);
            }
        }
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}

/// The request parser: the reactor [`feed`](RequestParser::feed)s it
/// whatever bytes the socket had, and
/// [`try_next`](RequestParser::try_next) yields a [`Request`] once a
/// complete one has accumulated. Pipelined requests queue in the
/// internal buffer and come out one `try_next` at a time.
///
/// Bounds are enforced *while buffering*: an endless newline-free line
/// errors at [`MAX_LINE_BYTES`], a header flood at [`MAX_HEADERS`], an
/// oversized `Content-Length` at [`MAX_BODY_BYTES`] — all before the
/// hostile bytes are held.
///
/// Parse progress survives between calls: each line is parsed once, when
/// its newline arrives, and the newline scan resumes where the last call
/// stopped, so a request costs time linear in its size however finely
/// the socket splits it.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// How far parsing got into the request at the front of `buf`.
    pending: Pending,
    /// Protocol lines parsed so far (request lines, headers, blank lines).
    #[cfg(test)]
    lines_parsed: usize,
    /// Bytes the newline scan has examined so far.
    #[cfg(test)]
    bytes_scanned: usize,
}

/// Parse progress of the request at the front of a [`RequestParser`]'s
/// buffer.
#[derive(Debug, Default)]
struct Pending {
    /// Start of the first line not yet parsed.
    line_start: usize,
    /// Where the newline scan of that line resumes: no `\n` sits in
    /// `line_start..scanned`.
    scanned: usize,
    /// The request, once its request line is parsed: method, path and
    /// query set, headers and body still empty.
    request: Option<Request>,
    /// The headers parsed so far.
    headers: ParsedHeaders,
    /// Where the body starts, once a blank line ended the header block.
    body_start: Option<usize>,
}

impl RequestParser {
    /// A parser with an empty buffer.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends freshly read socket bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Tries to parse one complete request off the front of the buffer.
    /// `Ok(None)` means "incomplete — feed more bytes".
    ///
    /// # Errors
    ///
    /// [`io::Error`] with `InvalidData` for a malformed request line or
    /// header, a non-numeric `Content-Length`, or any exceeded bound.
    pub fn try_next(&mut self) -> io::Result<Option<Request>> {
        // The request line, then the header block one bounded line at a
        // time until the blank line.
        while self.pending.body_start.is_none() {
            let p = &mut self.pending;
            let what = if p.request.is_some() {
                "header"
            } else {
                "request"
            };
            let from = p.scanned.max(p.line_start);
            let found = find_line(&self.buf, p.line_start, from, what)?;
            #[cfg(test)]
            {
                self.bytes_scanned += found.map_or(self.buf.len(), |end| end + 1) - from;
                self.lines_parsed += usize::from(found.is_some());
            }
            let Some(end) = found else {
                p.scanned = self.buf.len();
                return Ok(None);
            };
            let line = &self.buf[p.line_start..end];
            p.line_start = end + 1;
            p.scanned = end + 1;
            if p.request.is_none() {
                let line = std::str::from_utf8(line).map_err(|_| bad("malformed request line"))?;
                let mut parts = line.split_whitespace();
                let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
                    return Err(bad("malformed request line"));
                };
                let (path, query) = split_target(target);
                p.request = Some(Request {
                    method: method.to_ascii_uppercase(),
                    path,
                    query,
                    headers: Vec::new(),
                    body: Vec::new(),
                });
                continue;
            }
            let header = std::str::from_utf8(line)
                .map_err(|_| bad("malformed header"))?
                .trim_end();
            if header.is_empty() {
                p.body_start = Some(p.line_start);
            } else {
                p.headers.push(header)?;
            }
        }

        let start = self.pending.body_start.expect("the header block ended");
        let end = start + self.pending.headers.content_length.unwrap_or(0);
        if self.buf.len() < end {
            return Ok(None);
        }
        let pending = std::mem::take(&mut self.pending);
        let mut request = pending.request.expect("parsed before the headers");
        request.headers = pending.headers.headers;
        request.body = self.buf[start..end].to_vec();
        self.buf.drain(..end);
        Ok(Some(request))
    }
}

/// Finds the `\n` ending the line that starts at `start`, scanning from
/// `from` (the bytes before it hold none), and enforces [`MAX_LINE_BYTES`]
/// on both complete and still-accumulating lines.
fn find_line(buf: &[u8], start: usize, from: usize, what: &str) -> io::Result<Option<usize>> {
    match buf[from..].iter().position(|&b| b == b'\n') {
        Some(i) if from + i + 1 - start > MAX_LINE_BYTES => {
            Err(bad(&format!("{what} line too long")))
        }
        Some(i) => Ok(Some(from + i)),
        None if buf.len() - start > MAX_LINE_BYTES => Err(bad(&format!("{what} line too long"))),
        None => Ok(None),
    }
}

/// The header block of a request or response.
#[derive(Debug, Default)]
struct ParsedHeaders {
    headers: Vec<(String, String)>,
    content_length: Option<usize>,
    chunked: bool,
}

impl ParsedHeaders {
    /// Adds one header line (line ending already trimmed) under the rules
    /// both message directions share: at most [`MAX_HEADERS`] headers,
    /// lowercased names, `Content-Length` validated against
    /// [`MAX_BODY_BYTES`], `Transfer-Encoding: chunked` detected.
    fn push(&mut self, line: &str) -> io::Result<()> {
        if self.headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        match name.as_str() {
            "content-length" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| bad("non-numeric content-length"))?;
                if n > MAX_BODY_BYTES {
                    return Err(bad("body too large"));
                }
                self.content_length = Some(n);
            }
            "transfer-encoding" if value.eq_ignore_ascii_case("chunked") => self.chunked = true,
            _ => {}
        }
        self.headers.push((name, value));
        Ok(())
    }
}

/// Reads a response's header block, one bounded line at a time.
fn read_headers(reader: &mut impl BufRead) -> io::Result<ParsedHeaders> {
    let mut parsed = ParsedHeaders::default();
    loop {
        let Some(header) = read_line_bounded(reader, "header")? else {
            return Err(bad("connection closed inside headers"));
        };
        let header = header.trim_end();
        if header.is_empty() {
            return Ok(parsed);
        }
        parsed.push(header)?;
    }
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Marker error payload: the peer closed cleanly before sending any byte
/// of the response. On a kept-alive connection this is the signature of a
/// server that idle-closed without reading the request, or died before
/// answering — the one request/response failure a client may retry even
/// for non-idempotent requests (any later EOF may mean the request was
/// processed and the response lost).
#[derive(Debug)]
pub struct ClosedBeforeResponse;

impl std::fmt::Display for ClosedBeforeResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("connection closed before any response byte")
    }
}

impl std::error::Error for ClosedBeforeResponse {}

/// `true` when `e` is the closed-before-any-response-byte failure from
/// [`HttpConnection::read_response`] (see [`ClosedBeforeResponse`]).
pub fn closed_before_response(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<ClosedBeforeResponse>())
}

/// `true` when a raw request target's query string asks for long-poll /
/// blocking behaviour — the same test as [`Request::wants_wait`], for
/// callers (like the client's read timeout) that hold an unparsed target
/// rather than a [`Request`]. `wait` may appear
/// anywhere in the query string, as `1` or `true`.
pub fn target_wants_wait(target: &str) -> bool {
    let (_, query) = split_target(target);
    matches!(
        query
            .iter()
            .find(|(k, _)| k == "wait")
            .map(|(_, v)| v.as_str()),
        Some("1") | Some("true")
    )
}

/// Splits a request target into its path and parsed query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, qs)) => {
            let query = qs
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (kv.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), query)
        }
    }
}

/// Canonical reason phrases for the status codes this service uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders a complete fixed-length response, head and body in one
/// buffer.
pub fn render_response(
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nserver: dominod\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    message
}

/// Renders the head of a chunked-transfer response (always
/// `Connection: close`: event streams end with the connection).
pub fn render_chunked_head(status: u16) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {}\r\nserver: dominod\r\ncontent-type: application/json\r\n\
         transfer-encoding: chunked\r\nconnection: close\r\n\r\n",
        reason(status)
    )
    .into_bytes()
}

/// Frames one chunk (`{len:x}\r\n` + data + `\r\n`). Empty data renders
/// as no bytes at all — an empty chunk would terminate the stream.
pub fn render_chunk(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut framed = format!("{:x}\r\n", data.len()).into_bytes();
    framed.extend_from_slice(data);
    framed.extend_from_slice(b"\r\n");
    framed
}

/// The terminating zero-length chunk of a chunked stream.
pub fn render_chunk_end() -> &'static [u8] {
    b"0\r\n\r\n"
}

/// A parsed client-side response: status code plus the complete body
/// (chunked responses are reassembled; use
/// [`HttpConnection::read_response_streaming`] to observe chunks as they
/// arrive).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Headers as `(lowercased-name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// The reassembled body.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of the (case-insensitively matched) header `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` when the server will keep the connection open afterwards.
    pub fn keeps_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// [`io::Error`] with `InvalidData` if the body is not valid UTF-8.
    pub fn text(&self) -> io::Result<String> {
        String::from_utf8(self.body.clone()).map_err(|_| bad("response body is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    /// Feeds `wire` to one parser in pieces split at `cuts` (taken
    /// modulo the length), collecting requests until the first error.
    fn feed_in_pieces(wire: &[u8], cuts: &[usize]) -> (Vec<Request>, io::Result<()>) {
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
        bounds.extend([0, wire.len()]);
        bounds.sort_unstable();
        bounds.dedup();
        let mut parser = RequestParser::new();
        let mut requests = Vec::new();
        for piece in bounds.windows(2) {
            parser.feed(&wire[piece[0]..piece[1]]);
            loop {
                match parser.try_next() {
                    Ok(Some(request)) => requests.push(request),
                    Ok(None) => break,
                    Err(e) => return (requests, Err(e)),
                }
            }
        }
        (requests, Ok(()))
    }

    #[test]
    fn target_wants_wait_parses_the_query_like_the_server() {
        assert!(target_wants_wait("/jobs?wait=1"));
        assert!(target_wants_wait("/jobs?wait=true"));
        assert!(target_wants_wait("/jobs?wait=1&x"));
        assert!(target_wants_wait("/jobs/7/result?a=b&wait=true"));
        assert!(!target_wants_wait("/jobs"));
        assert!(!target_wants_wait("/jobs?wait=0"));
        assert!(!target_wants_wait("/jobs?await=1"));
        assert!(!target_wants_wait("/jobs?waitx=1"));
    }

    #[test]
    fn closed_before_any_response_byte_is_distinguished() {
        // A clean close before the status line carries the marker...
        let (client, server) = pair();
        drop(server);
        let err = HttpConnection::new(client).read_response().unwrap_err();
        assert!(closed_before_response(&err));
        // ...an EOF mid-body (same ErrorKind) does not: the response had
        // started, so the request was definitely processed.
        let (client, mut server) = pair();
        server
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc")
            .unwrap();
        drop(server);
        let err = HttpConnection::new(client).read_response().unwrap_err();
        assert!(!closed_before_response(&err));
    }

    #[test]
    fn fixed_response_roundtrip() {
        let (client, mut server) = pair();
        server
            .write_all(&render_response(
                429,
                &[("retry-after", "1")],
                b"{\"e\":1}",
                false,
            ))
            .unwrap();
        drop(server);
        let resp = HttpConnection::new(client).read_response().unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(!resp.keeps_alive());
        assert_eq!(resp.body, b"{\"e\":1}");
    }

    #[test]
    fn chunked_response_streams_and_reassembles() {
        let (client, mut server) = pair();
        let writer = std::thread::spawn(move || {
            server.write_all(&render_chunked_head(200)).unwrap();
            server.write_all(&render_chunk(b"{\"a\":1}\n")).unwrap();
            server.write_all(&render_chunk(b"{\"b\":2}\n")).unwrap();
            server.write_all(render_chunk_end()).unwrap();
        });
        let mut seen = Vec::new();
        let resp = HttpConnection::new(client)
            .read_response_streaming(|c| seen.push(c.to_vec()))
            .unwrap();
        writer.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"a\":1}\n{\"b\":2}\n");
        assert_eq!(seen.len(), 2);
        assert!(render_chunk(b"").is_empty(), "empty chunk renders nothing");
    }

    #[test]
    fn huge_chunk_size_is_rejected_without_overflow() {
        let (client, mut server) = pair();
        let writer = std::thread::spawn(move || {
            // A malformed chunked response claiming a ~usize::MAX chunk.
            let _ = server.write_all(
                b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nffffffffffffffff\r\n",
            );
        });
        let err = HttpConnection::new(client).read_response().unwrap_err();
        writer.join().unwrap();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn request_parser_accumulates_byte_at_a_time() {
        let wire = b"POST /jobs?wait=1&x HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello";
        let mut parser = RequestParser::new();
        for (i, byte) in wire.iter().enumerate() {
            parser.feed(std::slice::from_ref(byte));
            let parsed = parser.try_next().unwrap();
            if i + 1 < wire.len() {
                assert!(parsed.is_none(), "complete at byte {i}?");
            } else {
                let req = parsed.expect("complete request");
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/jobs");
                assert!(req.wants_wait());
                assert_eq!(req.query_param("x"), Some(""));
                assert_eq!(req.target(), "/jobs?wait=1&x");
                assert_eq!(req.body, b"hello");
                assert_eq!(req.header("host"), Some("t"));
            }
        }
    }

    #[test]
    fn request_parser_yields_pipelined_requests_in_order() {
        let mut parser = RequestParser::new();
        parser.feed(
            b"GET /a HTTP/1.1\r\n\r\n\
              POST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi\
              GET /c HTTP/1.1\r\n\r\n",
        );
        let mut paths = Vec::new();
        while let Some(req) = parser.try_next().unwrap() {
            paths.push(req.path);
        }
        assert_eq!(paths, ["/a", "/b", "/c"]);
    }

    #[test]
    fn request_parser_enforces_its_bounds() {
        // Endless newline-free line: cut off at the line bound.
        let mut parser = RequestParser::new();
        parser.feed(&vec![b'a'; MAX_LINE_BYTES + 2]);
        assert!(parser.try_next().is_err());

        // Oversized declared body: rejected at the header, before bytes.
        let mut parser = RequestParser::new();
        parser
            .feed(format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX).as_bytes());
        assert!(parser.try_next().is_err());

        // Malformed request line.
        let mut parser = RequestParser::new();
        parser.feed(b"NONSENSE\r\n\r\n");
        assert!(parser.try_next().is_err());
    }

    #[test]
    fn each_line_is_parsed_once_however_the_stream_is_split() {
        let mut wire = b"POST /jobs HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS - 1 {
            wire.extend_from_slice(format!("x-h{i}: {}\r\n", "v".repeat(200)).as_bytes());
        }
        wire.extend_from_slice(b"Content-Length: 4096\r\n\r\n");
        wire.resize(wire.len() + 4096, b'b');
        let head = wire.len() - 4096;
        for read in [1, 3, 64, 1000, wire.len()] {
            let mut parser = RequestParser::new();
            let mut requests = Vec::new();
            for piece in wire.chunks(read) {
                parser.feed(piece);
                requests.extend(parser.try_next().unwrap());
            }
            assert_eq!(requests.len(), 1, "{read}-byte reads");
            assert_eq!(requests[0].headers.len(), MAX_HEADERS);
            assert_eq!(requests[0].body.len(), 4096);
            // The request line, every header and the blank line, once each;
            // and the newline scan never looks at a byte twice.
            assert_eq!(parser.lines_parsed, MAX_HEADERS + 2, "{read}-byte reads");
            assert_eq!(parser.bytes_scanned, head, "{read}-byte reads");
        }
    }

    #[test]
    fn header_count_is_bounded() {
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS {
            wire.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
        }
        // Exactly MAX_HEADERS headers parse...
        let mut parser = RequestParser::new();
        parser.feed(&wire);
        parser.feed(b"\r\n");
        let request = parser.try_next().unwrap().expect("complete request");
        assert_eq!(request.headers.len(), MAX_HEADERS);
        // ...and one more is refused.
        wire.extend_from_slice(b"x-over: v\r\n\r\n");
        let mut parser = RequestParser::new();
        parser.feed(&wire);
        assert!(parser.try_next().is_err());
    }

    const METHODS: &[&str] = &["GET", "post", "Delete", "PUT"];
    const HEADER_NAMES: &[&str] = &["Host", "x-a", "X-Request-Id", "accept"];

    /// One request: method, path number, query pairs (key, has value),
    /// headers (name, value number), body, CRLF or bare-LF lines.
    type RequestCase = (
        usize,
        u64,
        Vec<(u64, bool)>,
        Vec<(usize, u64)>,
        Vec<u8>,
        bool,
    );

    fn request_case() -> impl Strategy<Value = RequestCase> {
        (
            0..METHODS.len(),
            0u64..1000,
            prop::collection::vec((0u64..4, any::<bool>()), 0..3),
            prop::collection::vec((0..HEADER_NAMES.len(), any::<u64>()), 0..4),
            prop::collection::vec(any::<u8>(), 0..40),
            any::<bool>(),
        )
    }

    /// A request as the parser reports it: method, path, query, headers,
    /// body.
    type Parts = (
        String,
        String,
        Vec<(String, String)>,
        Vec<(String, String)>,
        Vec<u8>,
    );

    fn parts(request: &Request) -> Parts {
        (
            request.method.clone(),
            request.path.clone(),
            request.query.clone(),
            request.headers.clone(),
            request.body.clone(),
        )
    }

    /// Renders `cases` as one pipelined byte stream, with the requests
    /// the parser must report for it.
    fn pipelined(cases: &[RequestCase]) -> (Vec<u8>, Vec<Parts>) {
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for (method, path, query, headers, body, crlf) in cases {
            let eol = if *crlf { "\r\n" } else { "\n" };
            let path = format!("/p{path}");
            let query: Vec<(String, String)> = query
                .iter()
                .map(|(k, valued)| {
                    (
                        format!("k{k}"),
                        if *valued {
                            format!("v{k}")
                        } else {
                            String::new()
                        },
                    )
                })
                .collect();
            let mut target = path.clone();
            for (i, (k, v)) in query.iter().enumerate() {
                target.push(if i == 0 { '?' } else { '&' });
                target.push_str(k);
                if !v.is_empty() {
                    target.push('=');
                    target.push_str(v);
                }
            }
            let mut head = format!("{} {target} HTTP/1.1{eol}", METHODS[*method]);
            let mut parsed_headers = Vec::new();
            for (name, value) in headers {
                head.push_str(&format!("{}:  v{value} {eol}", HEADER_NAMES[*name]));
                parsed_headers.push((
                    HEADER_NAMES[*name].to_ascii_lowercase(),
                    format!("v{value}"),
                ));
            }
            if !body.is_empty() {
                head.push_str(&format!("Content-Length: {}{eol}", body.len()));
                parsed_headers.push(("content-length".into(), body.len().to_string()));
            }
            head.push_str(eol);
            wire.extend_from_slice(head.as_bytes());
            wire.extend_from_slice(body);
            expected.push((
                METHODS[*method].to_ascii_uppercase(),
                path,
                query,
                parsed_headers,
                body.clone(),
            ));
        }
        (wire, expected)
    }

    /// HTTP's own alphabet plus bytes that are not UTF-8, so random input
    /// reaches every branch of the parser.
    const FRAGMENTS: &[&[u8]] = &[
        b"GET ",
        b"POST /jobs",
        b"/",
        b"?",
        b"&",
        b"=",
        b" HTTP/1.1",
        b"\r\n",
        b"\n",
        b":",
        b"content-length: ",
        b"content-length: 99999999999",
        b"0",
        b"7",
        b"x",
        b" ",
        b"\xff",
        b"\xc3\xa9",
        b"\r\n\r\n",
    ];

    /// What a server's reply adds to [`FRAGMENTS`]: status lines, header
    /// lines and chunked framing.
    const REPLY_FRAGMENTS: &[&[u8]] = &[
        b"HTTP/1.1 200 OK\r\n",
        b"HTTP/1.1 ",
        b"502 Bad Gateway",
        b"content-length: 3\r\n",
        b"connection: keep-alive\r\n",
        b"transfer-encoding: chunked\r\n",
        b"Transfer-Encoding: ",
        b"chunked",
        b"3\r\nabc\r\n",
        b"ffffffffffffffff\r\n",
        b"0\r\n\r\n",
    ];

    /// How a generated reply begins: with noise, a status line, or the
    /// head of a chunked reply, so the noise reaches the header and
    /// chunk readers too.
    const REPLY_HEADS: &[&[u8]] = &[
        b"",
        b"HTTP/1.1 200 OK\r\n",
        b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n",
    ];

    /// Byte strings drawn from `alphabet`'s fragments and single bytes.
    fn noise(alphabet: &[&'static [u8]]) -> impl Strategy<Value = Vec<u8>> {
        let fragments = alphabet.to_vec();
        prop::collection::vec((0..fragments.len() + 1, any::<u8>()), 0..96).prop_map(move |picks| {
            picks
                .into_iter()
                .flat_map(|(i, byte)| fragments.get(i).map_or(vec![byte], |f| f.to_vec()))
                .collect()
        })
    }

    const STATUSES: &[u16] = &[200, 202, 400, 404, 409, 429, 500, 502, 503];
    const EXTRA_HEADERS: &[&str] = &["retry-after", "x-request-id", "x-a"];

    /// One rendered reply: status, extra headers (name, value number),
    /// body and keep-alive.
    type ReplyCase = (usize, Vec<(usize, u64)>, Vec<u8>, bool);

    fn reply_case() -> impl Strategy<Value = ReplyCase> {
        (
            0..STATUSES.len(),
            prop::collection::vec((0..EXTRA_HEADERS.len(), any::<u64>()), 0..3),
            prop::collection::vec(any::<u8>(), 0..64),
            any::<bool>(),
        )
    }

    /// A reply's bytes, and the response the reader must report for them.
    fn rendered((status, extra, body, keep_alive): &ReplyCase) -> (Vec<u8>, Response) {
        let extra: Vec<(&str, String)> = extra
            .iter()
            .map(|(name, value)| (EXTRA_HEADERS[*name], format!("v{value}")))
            .collect();
        let extra: Vec<(&str, &str)> = extra.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let wire = render_response(STATUSES[*status], &extra, body, *keep_alive);
        let length = body.len().to_string();
        let connection = if *keep_alive { "keep-alive" } else { "close" };
        let fixed = [
            ("server", "dominod"),
            ("content-type", "application/json"),
            ("content-length", length.as_str()),
            ("connection", connection),
        ];
        let expected = Response {
            status: STATUSES[*status],
            headers: fixed
                .iter()
                .chain(&extra)
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: body.clone(),
        };
        (wire, expected)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pipelined_stream_parses_the_same_whole_or_split(
            cases in prop::collection::vec(request_case(), 1..5),
            cuts in prop::collection::vec(any::<usize>(), 0..12)
        ) {
            let (wire, expected) = pipelined(&cases);
            for cuts in [&[][..], &cuts[..]] {
                let (requests, result) = feed_in_pieces(&wire, cuts);
                prop_assert!(result.is_ok(), "{result:?}");
                prop_assert_eq!(requests.iter().map(parts).collect::<Vec<_>>(), expected.clone());
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_or_exceed_bounds(
            bytes in noise(FRAGMENTS),
            cuts in prop::collection::vec(any::<usize>(), 0..12)
        ) {
            let (requests, _) = feed_in_pieces(&bytes, &cuts);
            for request in &requests {
                prop_assert!(request.headers.len() <= MAX_HEADERS);
                prop_assert!(request.body.len() <= MAX_BODY_BYTES);
            }
        }

        #[test]
        fn arbitrary_replies_never_panic_or_exceed_bounds(
            head in 0..REPLY_HEADS.len(),
            bytes in noise(&[FRAGMENTS, REPLY_FRAGMENTS].concat())
        ) {
            let (client, mut server) = pair();
            server.write_all(REPLY_HEADS[head]).unwrap();
            server.write_all(&bytes).unwrap();
            drop(server);
            let mut conn = HttpConnection::new(client);
            // Every reply the bytes frame, until the first error.
            while let Ok(response) = conn.read_response() {
                prop_assert!(response.headers.len() <= MAX_HEADERS);
                prop_assert!(response.body.len() <= MAX_BODY_BYTES);
            }
        }

        #[test]
        fn replies_written_back_to_back_read_back_one_by_one(
            cases in prop::collection::vec(reply_case(), 1..5)
        ) {
            let (client, mut server) = pair();
            let replies: Vec<(Vec<u8>, Response)> = cases.iter().map(rendered).collect();
            for (wire, _) in &replies {
                server.write_all(wire).unwrap();
            }
            drop(server);
            let mut conn = HttpConnection::new(client);
            for (_, expected) in &replies {
                let response = conn.read_response().unwrap();
                prop_assert_eq!(response.status, expected.status);
                prop_assert_eq!(&response.headers, &expected.headers);
                prop_assert_eq!(&response.body, &expected.body);
            }
            let end = conn.read_response().unwrap_err();
            prop_assert!(closed_before_response(&end), "{end}");
        }

        #[test]
        fn overlong_lines_are_errors(
            in_header: bool,
            terminated: bool,
            extra in 1usize..4096,
            cuts in prop::collection::vec(any::<usize>(), 0..6)
        ) {
            let mut wire = if in_header {
                b"GET / HTTP/1.1\r\nx-fill: ".to_vec()
            } else {
                b"GET /".to_vec()
            };
            wire.resize(wire.len() + MAX_LINE_BYTES + extra, b'a');
            if terminated {
                wire.extend_from_slice(b"\r\n\r\n");
            }
            let (requests, result) = feed_in_pieces(&wire, &cuts);
            prop_assert!(requests.is_empty());
            prop_assert!(result.is_err());
        }
    }
}
