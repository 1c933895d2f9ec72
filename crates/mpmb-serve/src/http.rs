//! Hand-rolled HTTP/1.x request parsing and response writing.
//!
//! Implements exactly what the daemon needs: request line + headers +
//! `Content-Length` bodies, keep-alive, and fixed-size guards against
//! oversized requests. No chunked transfer encoding (requests with it
//! get 411), no TLS.
//!
//! The edge is hardened against misbehaving clients: head reads are
//! budgeted byte-by-byte so a request line with no newline cannot
//! buffer more than [`MAX_HEAD_BYTES`] before the 431 fires, duplicate
//! `Content-Length` headers with conflicting values are rejected with
//! 400 (the classic request-smuggling vector), and HTTP/1.0 requests
//! default to `Connection: close` per RFC 9112 — an HTTP/1.0 client
//! that never sends `Connection: keep-alive` gets its connection closed
//! after the response instead of hanging until the idle timeout.

use std::io::{BufRead, Write};
use std::net::TcpStream;

/// Upper bound on request head (request line + headers) bytes. Also
/// bounds how much a single headerless line can buffer before 431.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on declared body size.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method, e.g. `GET`.
    pub method: String,
    /// Path component (query string split off).
    pub path: String,
    /// Raw query string without `?` (empty if none).
    pub query: String,
    /// Protocol version token, e.g. `HTTP/1.1`. Drives the keep-alive
    /// default: HTTP/1.0 closes unless asked, HTTP/1.1 keeps open
    /// unless told to close.
    pub version: String,
    /// Lowercased header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Request body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open.
    ///
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let connection = self.header("connection");
        if self.version == "HTTP/1.0" {
            matches!(connection, Some(v) if v.eq_ignore_ascii_case("keep-alive"))
        } else {
            !matches!(connection, Some(v) if v.eq_ignore_ascii_case("close"))
        }
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF before any request bytes (client closed an idle
    /// keep-alive connection) — not an error worth answering.
    Closed,
    /// Socket-level failure or timeout.
    Io(std::io::Error),
    /// Malformed or unsupported request; the server should answer with
    /// this status and close.
    Bad {
        /// HTTP status to answer with.
        status: u16,
        /// Human-readable reason, sent in the JSON error body.
        msg: String,
    },
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn bad(status: u16, msg: impl Into<String>) -> ReadError {
    ReadError::Bad {
        status,
        msg: msg.into(),
    }
}

/// Reads one `\n`-terminated line, consuming at most `*budget` bytes
/// from the head allowance. Returns `None` on clean EOF before any
/// byte of this line. A line that exhausts the budget without a
/// newline is a 431 — crucially, *before* buffering anything beyond
/// the allowance, so an attacker streaming an endless request line
/// costs at most [`MAX_HEAD_BYTES`] of memory. The client reads
/// response heads through it too.
pub(crate) fn read_line_limited(
    reader: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Option<String>, ReadError> {
    let mut raw: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if raw.is_empty() {
                return Ok(None);
            }
            return Err(bad(400, "eof inside request head"));
        }
        let window = available.len().min(*budget);
        match available[..window].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                raw.extend_from_slice(&available[..pos + 1]);
                reader.consume(pos + 1);
                *budget -= pos + 1;
                let text = String::from_utf8(raw)
                    .map_err(|_| bad(400, "request head is not valid UTF-8"))?;
                return Ok(Some(text));
            }
            None if available.len() >= *budget => {
                return Err(bad(431, "request head too large"));
            }
            None => {
                raw.extend_from_slice(available);
                let n = available.len();
                reader.consume(n);
                *budget -= n;
            }
        }
    }
}

/// Reads one request from a buffered stream: the server's
/// `BufReader<TcpStream>`, or any in-memory reader.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ReadError> {
    let mut budget = MAX_HEAD_BYTES;

    let line = match read_line_limited(reader, &mut budget)? {
        None => return Err(ReadError::Closed),
        Some(l) => l,
    };
    let request_line = line.trim_end_matches(['\r', '\n']).to_string();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| bad(400, "empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| bad(400, "missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| bad(400, "missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad(505, format!("unsupported version `{version}`")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let line = match read_line_limited(reader, &mut budget)? {
            None => return Err(bad(400, "eof inside headers")),
            Some(l) => l,
        };
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| bad(400, format!("malformed header `{trimmed}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let req = Request {
        method,
        path,
        query,
        version: version.to_string(),
        headers,
        body: Vec::new(),
    };

    if matches!(req.header("transfer-encoding"), Some(v) if !v.eq_ignore_ascii_case("identity")) {
        return Err(bad(
            411,
            "chunked bodies not supported; send Content-Length",
        ));
    }
    // Duplicate Content-Length headers are fine if they agree; with
    // conflicting values there is no safe interpretation (a proxy in
    // front may have picked the other one), so reject.
    let mut lengths = req
        .headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .map(|(_, v)| v.as_str());
    let len: usize = match lengths.next() {
        None => 0,
        Some(first) => {
            if lengths.any(|v| v != first) {
                return Err(bad(400, "conflicting Content-Length headers"));
            }
            first
                .parse()
                .map_err(|_| bad(400, format!("bad Content-Length `{first}`")))?
        }
    };
    if len > MAX_BODY_BYTES {
        return Err(bad(413, "body too large"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Request { body, ..req })
}

/// A response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content type (`application/json` for everything but `/metrics`).
    pub content_type: &'static str,
    /// Extra response headers (name, value), written verbatim.
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Adds one response header (builder-style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// A JSON error envelope `{"error": msg}`.
    pub fn error(status: u16, msg: &str) -> Response {
        Response::json(
            status,
            crate::json::Json::obj([("error", crate::json::Json::Str(msg.to_string()))])
                .to_string(),
        )
    }

    /// A binary response (the cluster's internal range protocol).
    pub fn octets(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type: "application/octet-stream",
            headers: Vec::new(),
            body,
        }
    }

    /// Prometheus text exposition.
    pub fn metrics_text(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }
}

/// Status line reason phrases for the codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Renders the status line and headers (through the terminating blank
/// line) for `resp`. Shared by the normal write path and the
/// fault-injection degraded writers, which need the raw bytes.
pub fn render_head(resp: &Response, close: bool) -> String {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

/// Writes `resp` to the stream. `close` controls the `Connection` header.
pub fn write_response(stream: &mut TcpStream, resp: &Response, close: bool) -> std::io::Result<()> {
    stream.write_all(render_head(resp, close).as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(version: &str, headers: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_string(),
            path: "/".to_string(),
            query: String::new(),
            version: version.to_string(),
            headers: headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        }
    }

    #[test]
    fn http11_defaults_to_keep_alive() {
        assert!(request("HTTP/1.1", &[]).keep_alive());
        assert!(!request("HTTP/1.1", &[("connection", "close")]).keep_alive());
        assert!(!request("HTTP/1.1", &[("connection", "CLOSE")]).keep_alive());
    }

    #[test]
    fn http10_defaults_to_close() {
        assert!(!request("HTTP/1.0", &[]).keep_alive());
        assert!(request("HTTP/1.0", &[("connection", "keep-alive")]).keep_alive());
        assert!(request("HTTP/1.0", &[("connection", "Keep-Alive")]).keep_alive());
        assert!(!request("HTTP/1.0", &[("connection", "close")]).keep_alive());
    }

    /// A valid keep-alive POST with a JSON body: the seed for every
    /// hostility case below.
    const POST: &[u8] = b"POST /v1/solve?x=1 HTTP/1.1\r\nHost: a\r\n\
Content-Type: application/json\r\nContent-Length: 12\r\n\r\n{\"trials\":9}";

    fn parse(bytes: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut std::io::Cursor::new(bytes))
    }

    fn status(bytes: &[u8]) -> Option<u16> {
        match parse(bytes) {
            Err(ReadError::Bad { status, .. }) => Some(status),
            _ => None,
        }
    }

    #[test]
    fn reads_a_request_from_memory() {
        let req = parse(POST).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/solve");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.header("content-length"), Some("12"));
        assert_eq!(req.body, b"{\"trials\":9}");
    }

    #[test]
    fn every_truncated_prefix_is_a_read_error() {
        assert!(matches!(parse(b""), Err(ReadError::Closed)));
        for cut in 1..POST.len() {
            assert!(
                parse(&POST[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn head_bit_flips_never_panic() {
        // A flip may leave a valid request (`POST` -> `PoST` is
        // uppercased back; a header value may change), so the contract
        // is a parsed request or a `ReadError`, never a panic.
        let head_len = POST.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        for byte in 0..head_len {
            for bit in 0..8 {
                let mut bad = POST.to_vec();
                bad[byte] ^= 1 << bit;
                let _ = parse(&bad);
            }
        }
    }

    #[test]
    fn oversized_request_line_is_431() {
        let mut line = b"GET /".to_vec();
        line.resize(17 * 1024, b'a');
        line.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(status(&line), Some(431));
    }

    #[test]
    fn hostile_content_length_is_rejected() {
        let with = |lengths: &str| format!("POST / HTTP/1.1\r\n{lengths}\r\n{{}}").into_bytes();
        let conflicting = with("Content-Length: 2\r\nContent-Length: 3\r\n");
        assert_eq!(status(&conflicting), Some(400));
        let overflow = with("Content-Length: 99999999999999999999\r\n");
        assert_eq!(status(&overflow), Some(400));
        let too_big = with(&format!("Content-Length: {}\r\n", MAX_BODY_BYTES + 1));
        assert_eq!(status(&too_big), Some(413));
        // Agreeing duplicates are fine.
        let agreeing = with("Content-Length: 2\r\nContent-Length: 2\r\n");
        assert_eq!(parse(&agreeing).unwrap().body, b"{}");
    }

    #[test]
    fn invalid_utf8_header_is_400() {
        let bytes = b"GET / HTTP/1.1\r\nX-Name: \xff\xfe\r\n\r\n";
        assert_eq!(status(bytes), Some(400));
    }

    #[test]
    fn render_head_carries_extra_headers() {
        let resp = Response::json(429, "{}").with_header("Retry-After", "1");
        let head = render_head(&resp, true);
        assert!(head.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(head.contains("Retry-After: 1\r\n"));
        assert!(head.contains("Connection: close\r\n"));
        assert!(head.ends_with("\r\n\r\n"));
    }
}
