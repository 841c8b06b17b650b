//! A deliberately small HTTP/1.1 layer over [`std::net::TcpStream`].
//!
//! The build environment has no registry access, so — following the
//! `crates/compat` precedent — the service carries its own wire layer
//! instead of hyper/axum. It implements exactly what `dominod`, the
//! `dominogw` gateway and their clients need and nothing more:
//!
//! * request parsing: request line, headers, `Content-Length` bodies
//!   (bounded by [`MAX_BODY_BYTES`]), query-string splitting;
//! * response writing: fixed-length bodies with negotiated
//!   `Connection: keep-alive` / `close` semantics, and
//!   `Transfer-Encoding: chunked` streaming for the `/jobs/:id/events`
//!   endpoint (chunked responses always close);
//! * response reading for the client side, including a streaming chunk
//!   decoder that yields line-delimited event records as they arrive.
//!
//! # Keep-alive and pipelining
//!
//! [`HttpConnection`] wraps one TCP stream with a persistent read buffer,
//! so a connection carries many requests back to back. Clients may
//! pipeline: requests already buffered are parsed without touching the
//! socket, and responses are written strictly in request order (the
//! server handles one request at a time per connection, so the in-flight
//! pipeline depth is bounded by the socket and read buffers — a peer can
//! never force the server to hold more than one parsed request in
//! memory). On the server side, [`HttpFront`](crate::front::HttpFront)
//! runs this state machine from its reactor over a [`RequestParser`]:
//!
//! ```text
//!          ┌────────────── idle (timer = idle_timeout) ────────────────┐
//!          ▼                                                           │
//!   next request ──▶ parsed ──▶ handler answers ──▶ keep-alive? ───────┘
//!          │
//!          ├─ clean EOF / idle timeout ─▶ close
//!          ├─ malformed / stalled mid-request ─▶ 400 + close
//!          └─ request #max_requests, Connection: close, or a
//!             streaming handler ─▶ final response carries close
//! ```
//!
//! No TLS, no compression, no `Expect: 100-continue`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

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

/// `true` for the error kinds a read timeout surfaces as (`WouldBlock` on
/// unix, `TimedOut` on windows).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
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

/// What [`HttpConnection::next_request`] found on the wire.
#[derive(Debug)]
pub enum NextRequest {
    /// A complete request.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The idle deadline passed with no request byte received — close
    /// without error (distinct from a peer stalling *mid*-request, which
    /// is an [`io::Error`]).
    TimedOut,
}

/// One HTTP/1.1 connection (either side) with a persistent read buffer —
/// the carrier for keep-alive and pipelining. Bytes of a follow-up
/// request that arrive early stay in the buffer and are parsed by the
/// next [`HttpConnection::next_request`] call instead of being lost.
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

    /// The underlying stream (for timeouts and peer addresses).
    pub fn stream(&self) -> &TcpStream {
        self.reader.get_ref()
    }

    /// Mutable access to the underlying stream (writes bypass the read
    /// buffer, which is exactly right for HTTP).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        self.reader.get_mut()
    }

    /// `true` when a pipelined peer already delivered bytes of the next
    /// message: parsing can proceed without waiting on the socket.
    pub fn has_buffered(&self) -> bool {
        !self.reader.buffer().is_empty()
    }

    /// Reads the next request off the connection.
    ///
    /// A read timeout that fires before *any* byte of the request line is
    /// [`NextRequest::TimedOut`] (the idle-deadline close); one that fires
    /// mid-request is an error, because the stream is no longer at a
    /// message boundary and cannot be resynchronized.
    ///
    /// # Errors
    ///
    /// [`io::Error`] with `InvalidData` for malformed requests (bad
    /// request line, non-numeric or oversized `Content-Length`, truncated
    /// body), or the underlying I/O error.
    pub fn next_request(&mut self) -> io::Result<NextRequest> {
        if domino_failpoint::should_fire("serve.http.read") {
            return Err(domino_failpoint::injected_io_error("serve.http.read"));
        }
        let mut line = String::new();
        let n = match self
            .reader
            .by_ref()
            .take((MAX_LINE_BYTES + 1) as u64)
            .read_line(&mut line)
        {
            Ok(n) => n,
            Err(e) if is_timeout(&e) && line.is_empty() => return Ok(NextRequest::TimedOut),
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Ok(NextRequest::Closed);
        }
        if n > MAX_LINE_BYTES && !line.ends_with('\n') {
            return Err(bad("request line too long"));
        }
        let mut parts = line.split_whitespace();
        let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
            return Err(bad("malformed request line"));
        };
        let method = method.to_ascii_uppercase();
        let (path, query) = split_target(target);

        let parsed = read_headers(&mut self.reader)?;

        let mut body = vec![0u8; parsed.content_length.unwrap_or(0)];
        self.reader.read_exact(&mut body)?;
        Ok(NextRequest::Request(Request {
            method,
            path,
            query,
            headers: parsed.headers,
            body,
        }))
    }

    /// Writes a complete fixed-length response and flushes it, with the
    /// negotiated `Connection` header.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the underlying writes.
    pub fn write_response(
        &mut self,
        status: u16,
        extra_headers: &[(&str, &str)],
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<()> {
        if domino_failpoint::should_fire("serve.http.write") {
            return Err(domino_failpoint::injected_io_error("serve.http.write"));
        }
        let stream = self.reader.get_mut();
        // One write per message: a head-then-body pair of small segments
        // would re-trigger the Nagle/delayed-ACK stall on every exchange.
        let message = render_response(status, extra_headers, body, keep_alive);
        stream.write_all(&message)?;
        stream.flush()
    }

    /// Begins a chunked-transfer response (always `Connection: close`:
    /// event streams end with the connection).
    ///
    /// # Errors
    ///
    /// [`io::Error`] from writing the response head.
    pub fn begin_chunked(&mut self, status: u16) -> io::Result<ChunkedWriter<'_>> {
        ChunkedWriter::begin(self.reader.get_mut(), status)
    }

    /// Client side: writes one request and flushes it.
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

    /// Client side: reads a complete response, reassembling chunked
    /// bodies.
    ///
    /// # Errors
    ///
    /// [`io::Error`] for connection failures or malformed responses.
    pub fn read_response(&mut self) -> io::Result<Response> {
        self.read_response_streaming(|_| {})
    }

    /// Client side: reads a response, invoking `on_chunk` for every chunk
    /// of a chunked body as it arrives (fixed-length bodies get a single
    /// callback). The complete body is still returned.
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

/// An incremental request parser for non-blocking connections: the
/// reactor [`feed`](RequestParser::feed)s it whatever bytes the socket
/// had, and [`try_next`](RequestParser::try_next) yields a [`Request`]
/// once a complete one has accumulated. Pipelined requests queue in the
/// internal buffer and come out one `try_next` at a time.
///
/// Bounds are enforced *while buffering*, matching the blocking parser:
/// an endless newline-free line errors at [`MAX_LINE_BYTES`], a header
/// flood at [`MAX_HEADERS`], an oversized `Content-Length` at
/// [`MAX_BODY_BYTES`] — all before the hostile bytes are held.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
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

    /// `true` when no bytes of a next request have arrived — the
    /// idle-timeout close is silent exactly when this holds (a partial
    /// request dying at the deadline is a mid-request stall instead).
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty()
    }

    /// Tries to parse one complete request off the front of the buffer.
    /// `Ok(None)` means "incomplete — feed more bytes".
    ///
    /// # Errors
    ///
    /// [`io::Error`] with `InvalidData` for the same malformed shapes the
    /// blocking [`HttpConnection::next_request`] rejects.
    pub fn try_next(&mut self) -> io::Result<Option<Request>> {
        let Some(line_end) = find_line(&self.buf, 0, "request")? else {
            return Ok(None);
        };
        let line = std::str::from_utf8(&self.buf[..line_end])
            .map_err(|_| bad("malformed request line"))?;
        let mut parts = line.split_whitespace();
        let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
            return Err(bad("malformed request line"));
        };
        let method = method.to_ascii_uppercase();
        let (path, query) = split_target(target);

        // Header block: one bounded line at a time until the blank line.
        let mut cursor = line_end + 1;
        let mut headers: Vec<(String, String)> = Vec::new();
        let mut content_length: usize = 0;
        loop {
            let Some(end) = find_line(&self.buf, cursor, "header")? else {
                return Ok(None);
            };
            let header = std::str::from_utf8(&self.buf[cursor..end])
                .map_err(|_| bad("malformed header"))?
                .trim_end();
            cursor = end + 1;
            if header.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(bad("too many headers"));
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad("malformed header"));
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                let n: usize = value
                    .parse()
                    .map_err(|_| bad("non-numeric content-length"))?;
                if n > MAX_BODY_BYTES {
                    return Err(bad("body too large"));
                }
                content_length = n;
            }
            headers.push((name, value));
        }

        if self.buf.len() < cursor + content_length {
            return Ok(None);
        }
        let body = self.buf[cursor..cursor + content_length].to_vec();
        self.buf.drain(..cursor + content_length);
        Ok(Some(Request {
            method,
            path,
            query,
            headers,
            body,
        }))
    }
}

/// Finds the `\n` ending the line that starts at `from`, enforcing
/// [`MAX_LINE_BYTES`] on both complete and still-accumulating lines.
fn find_line(buf: &[u8], from: usize, what: &str) -> io::Result<Option<usize>> {
    match buf[from.min(buf.len())..].iter().position(|&b| b == b'\n') {
        Some(i) if i + 1 > MAX_LINE_BYTES => Err(bad(&format!("{what} line too long"))),
        Some(i) => Ok(Some(from + i)),
        None if buf.len() - from.min(buf.len()) > MAX_LINE_BYTES => {
            Err(bad(&format!("{what} line too long")))
        }
        None => Ok(None),
    }
}

/// The header block of a request or response.
struct ParsedHeaders {
    headers: Vec<(String, String)>,
    content_length: Option<usize>,
    chunked: bool,
}

/// Reads the header block shared by both message directions: bounded
/// lines, bounded count, lowercased names, `Content-Length` validated
/// against [`MAX_BODY_BYTES`], `Transfer-Encoding: chunked` detected.
fn read_headers(reader: &mut impl BufRead) -> io::Result<ParsedHeaders> {
    let mut parsed = ParsedHeaders {
        headers: Vec::new(),
        content_length: None,
        chunked: false,
    };
    loop {
        let Some(header) = read_line_bounded(reader, "header")? else {
            return Err(bad("connection closed inside headers"));
        };
        let header = header.trim_end();
        if header.is_empty() {
            return Ok(parsed);
        }
        if parsed.headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let Some((name, value)) = header.split_once(':') else {
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
                parsed.content_length = Some(n);
            }
            "transfer-encoding" if value.eq_ignore_ascii_case("chunked") => parsed.chunked = true,
            _ => {}
        }
        parsed.headers.push((name, value));
    }
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Marker error payload: the peer closed cleanly before sending any byte
/// of the response. On a kept-alive connection this is the signature of a
/// server that idle-closed without reading the request — the one
/// request/response failure a client may safely retry even for
/// non-idempotent requests (any later EOF may mean the request was
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
/// callers (like the client's connection pooling) that hold an
/// unparsed target rather than a [`Request`]. `wait` may appear
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

/// A chunked-transfer response in progress: each [`ChunkedWriter::chunk`]
/// is flushed immediately so clients observe events as they happen.
#[derive(Debug)]
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head and returns the chunk writer.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from writing the head.
    pub fn begin(stream: &'a mut TcpStream, status: u16) -> io::Result<Self> {
        stream.write_all(&render_chunked_head(status))?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Writes one chunk and flushes it.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the underlying writes.
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        self.stream.write_all(&render_chunk(data))?;
        self.stream.flush()
    }

    /// Writes the terminating zero-length chunk.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the underlying writes.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(render_chunk_end())?;
        self.stream.flush()
    }
}

/// Renders a complete fixed-length response — head and body in one
/// buffer — exactly as [`HttpConnection::write_response`] puts it on the
/// wire. The reactor path queues these bytes for writable-readiness
/// instead of writing inline, so sharing the renderer is what keeps the
/// two paths byte-identical.
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
/// `Connection: close`), exactly as [`ChunkedWriter::begin`] writes it.
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
    use std::net::TcpListener;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn read_one(server: TcpStream) -> io::Result<NextRequest> {
        HttpConnection::new(server).next_request()
    }

    #[test]
    fn request_roundtrip_with_body_and_query() {
        let (mut client, server) = pair();
        client
            .write_all(b"POST /jobs?wait=1&x HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        let NextRequest::Request(req) = read_one(server).unwrap() else {
            panic!("expected a request");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert!(req.wants_wait());
        assert_eq!(req.query_param("x"), Some(""));
        assert_eq!(req.body, b"hello");
        assert_eq!(req.header("host"), Some("t"));
        assert_eq!(req.target(), "/jobs?wait=1&x");
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
        let (client, server) = pair();
        let mut server = HttpConnection::new(server);
        server
            .write_response(429, &[("retry-after", "1")], b"{\"e\":1}", false)
            .unwrap();
        drop(server);
        let resp = HttpConnection::new(client).read_response().unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(!resp.keeps_alive());
        assert_eq!(resp.body, b"{\"e\":1}");
    }

    #[test]
    fn keep_alive_connection_carries_many_requests() {
        let (client, server) = pair();
        let mut client = HttpConnection::new(client);
        let server_side = std::thread::spawn(move || {
            let mut conn = HttpConnection::new(server);
            for i in 0..3u32 {
                let NextRequest::Request(req) = conn.next_request().unwrap() else {
                    panic!("expected request {i}");
                };
                assert_eq!(req.path, format!("/r{i}"));
                conn.write_response(200, &[], format!("resp{i}").as_bytes(), i < 2)
                    .unwrap();
            }
        });
        for i in 0..3u32 {
            client
                .write_request("t", "GET", &format!("/r{i}"), None, i < 2)
                .unwrap();
            let resp = client.read_response().unwrap();
            assert_eq!(resp.body, format!("resp{i}").as_bytes());
            assert_eq!(resp.keeps_alive(), i < 2);
        }
        server_side.join().unwrap();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let (mut client, server) = pair();
        // Three requests in one write, before the server reads anything.
        client
            .write_all(
                b"GET /a HTTP/1.1\r\nconnection: keep-alive\r\n\r\n\
                  GET /b HTTP/1.1\r\nconnection: keep-alive\r\n\r\n\
                  GET /c HTTP/1.1\r\nconnection: close\r\n\r\n",
            )
            .unwrap();
        let mut conn = HttpConnection::new(server);
        let mut paths = Vec::new();
        for _ in 0..3 {
            let NextRequest::Request(req) = conn.next_request().unwrap() else {
                panic!("expected a pipelined request");
            };
            paths.push(req.path.clone());
            conn.write_response(200, &[], req.path.as_bytes(), !req.wants_close())
                .unwrap();
        }
        assert_eq!(paths, ["/a", "/b", "/c"]);
        // After the first parse the rest were already buffered.
        let mut client = HttpConnection::new(client);
        for path in ["/a", "/b", "/c"] {
            assert_eq!(client.read_response().unwrap().body, path.as_bytes());
        }
    }

    #[test]
    fn idle_timeout_yields_timed_out_not_error() {
        let (_client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = HttpConnection::new(server);
        assert!(matches!(
            conn.next_request().unwrap(),
            NextRequest::TimedOut
        ));
    }

    #[test]
    fn stall_mid_request_is_an_error_not_idle() {
        let (mut client, server) = pair();
        // Half a request line, then silence.
        client.write_all(b"GET /half").unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = HttpConnection::new(server);
        assert!(conn.next_request().is_err());
    }

    #[test]
    fn chunked_response_streams_and_reassembles() {
        let (client, mut server) = pair();
        let writer = std::thread::spawn(move || {
            let mut w = ChunkedWriter::begin(&mut server, 200).unwrap();
            w.chunk(b"{\"a\":1}\n").unwrap();
            w.chunk(b"{\"b\":2}\n").unwrap();
            w.finish().unwrap();
        });
        let mut seen = Vec::new();
        let resp = HttpConnection::new(client)
            .read_response_streaming(|c| seen.push(c.to_vec()))
            .unwrap();
        writer.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"a\":1}\n{\"b\":2}\n");
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn oversized_content_length_is_rejected() {
        let (mut client, server) = pair();
        client
            .write_all(
                format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX).as_bytes(),
            )
            .unwrap();
        assert!(read_one(server).is_err());
    }

    #[test]
    fn closed_connection_yields_none() {
        let (client, server) = pair();
        drop(client);
        assert!(matches!(read_one(server).unwrap(), NextRequest::Closed));
    }

    #[test]
    fn endless_header_line_is_cut_off_at_the_line_bound() {
        let (mut client, server) = pair();
        let reader = std::thread::spawn(move || read_one(server));
        // The reader stops consuming once it errors; bound our writes so a
        // full socket buffer can never turn this test into a hang.
        client
            .set_write_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let _ = client.write_all(b"GET / HTTP/1.1\r\nx-fill: ");
        // Twice the line bound, no newline: the reader must error at the
        // bound, not buffer until OOM or EOF.
        let chunk = vec![b'a'; 8 * 1024];
        for _ in 0..16 {
            if client.write_all(&chunk).is_err() {
                break; // reader already gave up — exactly what we want
            }
        }
        drop(client);
        let err = reader.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn header_count_is_bounded() {
        let (mut client, server) = pair();
        let reader = std::thread::spawn(move || read_one(server));
        let _ = client.write_all(b"GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 8) {
            if client
                .write_all(format!("x-h{i}: v\r\n").as_bytes())
                .is_err()
            {
                break;
            }
        }
        drop(client);
        assert!(reader.join().unwrap().is_err());
    }

    #[test]
    fn request_parser_accumulates_byte_at_a_time() {
        let wire = b"POST /jobs?wait=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello";
        let mut parser = RequestParser::new();
        assert!(parser.is_idle());
        for (i, byte) in wire.iter().enumerate() {
            parser.feed(std::slice::from_ref(byte));
            let parsed = parser.try_next().unwrap();
            if i + 1 < wire.len() {
                assert!(parsed.is_none(), "complete at byte {i}?");
                assert!(!parser.is_idle());
            } else {
                let req = parsed.expect("complete request");
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/jobs");
                assert!(req.wants_wait());
                assert_eq!(req.body, b"hello");
                assert_eq!(req.header("host"), Some("t"));
            }
        }
        assert!(parser.is_idle(), "buffer fully consumed");
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
    fn request_parser_enforces_bounds_like_the_blocking_parser() {
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
    fn render_helpers_match_the_blocking_writers_bytes() {
        let (client, server) = pair();
        let mut server = HttpConnection::new(server);
        server
            .write_response(429, &[("retry-after", "1")], b"{\"e\":1}", true)
            .unwrap();
        drop(server);
        let mut wire = Vec::new();
        let mut client = client;
        client.read_to_end(&mut wire).unwrap();
        assert_eq!(
            wire,
            render_response(429, &[("retry-after", "1")], b"{\"e\":1}", true)
        );

        let (client, mut server) = pair();
        let writer = std::thread::spawn(move || {
            let mut w = ChunkedWriter::begin(&mut server, 200).unwrap();
            w.chunk(b"{\"a\":1}\n").unwrap();
            w.finish().unwrap();
        });
        let mut wire = Vec::new();
        let mut client = client;
        client.read_to_end(&mut wire).unwrap();
        writer.join().unwrap();
        let mut expected = render_chunked_head(200);
        expected.extend_from_slice(&render_chunk(b"{\"a\":1}\n"));
        expected.extend_from_slice(render_chunk_end());
        assert_eq!(wire, expected);
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
}
